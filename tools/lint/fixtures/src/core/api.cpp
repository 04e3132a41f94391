#include "optics/propagator.hpp"

// Seeded violations: by-value propagation calls in library code.
void runHop(const lightridge::Propagator *prop, lightridge::Field &u)
{
    auto out = prop->forward(u);
    auto back = prop->adjoint(out);
    (void)back;
    // prop->forward( in a comment must NOT be flagged.
    const char *s = "prop->adjoint(";
    (void)s;
}
