#include "core/layer.hpp"
#include "optics/propagator.hpp"

// Seeded violations: by-value propagation calls in library code.
void runHop(const lightridge::Propagator *prop, lightridge::Layer *layer,
            lightridge::Field &u)
{
    auto out = prop->forward(u);
    auto back = prop->adjoint(out);
    (void)back;
    auto g = layer->backward(u);
    auto y = layer->infer(u);
    (void)g;
    (void)y;
    // prop->forward( in a comment must NOT be flagged.
    const char *s = "prop->adjoint(";
    (void)s;
}
