#include "core/diffractive_layer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "fft/kernels.hpp"
#include "optics/perturbation.hpp"

namespace lightridge {

namespace {

// Interleaved (re, im) views for the element-wise kernels.
Real *
reals(Field &f)
{
    return reinterpret_cast<Real *>(f.data());
}

const Real *
reals(const Field &f)
{
    return reinterpret_cast<const Real *>(f.data());
}

} // namespace

DiffractiveLayer::DiffractiveLayer(
    std::shared_ptr<const Propagator> propagator, Real gamma, Rng *rng)
    : propagator_(std::move(propagator)), gamma_(gamma)
{
    const std::size_t n = propagator_->config().grid.n;
    phase_ = RealMap(n, n, 0.0);
    phase_grad_ = RealMap(n, n, 0.0);
    if (rng != nullptr) {
        // Full-range random phases: the standard DONN initialization
        // (phase is cyclic, so there is no "small init" advantage, and
        // full-range masks exercise the device's whole response curve).
        for (std::size_t i = 0; i < phase_.size(); ++i)
            phase_[i] = rng->uniform(0.0, kTwoPi);
    }
}

// The published table is immutable, so sharing the pointer is safe; the
// mutex is per-instance and starts fresh. Initializing in the member
// list (via publishedModulation(), which locks the source instance)
// keeps the constructor free of guarded-member writes.
DiffractiveLayer::DiffractiveLayer(const DiffractiveLayer &other)
    : propagator_(other.propagator_), gamma_(other.gamma_),
      phase_(other.phase_), phase_grad_(other.phase_grad_),
      modulation_(other.modulation_),
      modulation_phase_(other.modulation_phase_),
      infer_modulation_(other.publishedModulation()),
      cached_diffracted_(other.cached_diffracted_),
      cached_out_(other.cached_out_)
{}

std::shared_ptr<const DiffractiveLayer::InferModulation>
DiffractiveLayer::publishedModulation() const
{
    MutexLock lock(infer_cache_mutex_);
    return infer_modulation_;
}

void
DiffractiveLayer::ensureModulation()
{
    const std::size_t size = phase_.size();
    if (modulation_.size() == size &&
        std::memcmp(modulation_phase_.data(), phase_.data(),
                    size * sizeof(Real)) == 0)
        return;
    ensureFieldShape(modulation_, phase_.rows(), phase_.cols());
    for (std::size_t i = 0; i < size; ++i)
        modulation_[i] = std::polar(Real(1), phase_[i]);
    modulation_phase_ = phase_;
}

void
DiffractiveLayer::forwardInPlace(Field &u, bool training,
                                 PropagationWorkspace &workspace)
{
    if (!training) {
        inferInPlace(u, workspace);
        return;
    }
    ensureModulation();
    const LayerPerturbation *p = perturb_;
    propagator_->forwardInto(u, cached_diffracted_, workspace,
                             p ? &p->hop : nullptr);
    ensureFieldShape(cached_out_, cached_diffracted_.rows(),
                     cached_diffracted_.cols());
    ensureFieldShape(u, cached_diffracted_.rows(),
                     cached_diffracted_.cols());
    kernels::cmulScaledInterleaved(reals(cached_out_),
                                   reals(cached_diffracted_), gamma_,
                                   reals(modulation_), cached_out_.size());
    // The phase screen multiplies into cached_out_ as well, so the
    // phase-gradient identity dL/dphi = Re(conj(G) * j * U_out) in
    // backwardInPlace() holds unchanged under noise.
    if (p && p->has_noise)
        kernels::cmulInterleaved(reals(cached_out_), reals(p->noise),
                                 cached_out_.size());
    std::copy_n(cached_out_.data(), cached_out_.size(), u.data());
}

std::shared_ptr<const DiffractiveLayer::InferModulation>
DiffractiveLayer::inferModulation() const
{
    MutexLock lock(infer_cache_mutex_);
    const std::size_t size = phase_.size();
    if (infer_modulation_ && infer_modulation_->table.size() == size &&
        std::memcmp(infer_modulation_->phase.data(), phase_.data(),
                    size * sizeof(Real)) == 0)
        return infer_modulation_;
    auto fresh = std::make_shared<InferModulation>();
    fresh->table = Field(phase_.rows(), phase_.cols());
    for (std::size_t i = 0; i < size; ++i)
        fresh->table[i] = std::polar(Real(1), phase_[i]);
    fresh->phase = phase_;
    infer_modulation_ = fresh;
    return fresh;
}

void
DiffractiveLayer::inferInPlace(Field &u,
                               PropagationWorkspace &workspace) const
{
    std::shared_ptr<const InferModulation> mod = inferModulation();
    const LayerPerturbation *p = perturb_;
    propagator_->forwardInto(u, u, workspace, p ? &p->hop : nullptr);
    kernels::cmulScaledInterleaved(reals(u), reals(u), gamma_,
                                   reals(mod->table), u.size());
    if (p && p->has_noise)
        kernels::cmulInterleaved(reals(u), reals(p->noise), u.size());
}

LayerPtr
DiffractiveLayer::clone() const
{
    return std::make_unique<DiffractiveLayer>(*this);
}

void
DiffractiveLayer::backwardInPlace(Field &g, PropagationWorkspace &workspace)
{
    ensureModulation();
    // dL/dphi = Re(conj(G_out) * j * U_out): the phase rotates the output
    // in the complex plane, so its gradient is the tangential component.
    kernels::accumulatePhaseGrad(phase_grad_.data(), reals(g),
                                 reals(cached_out_), phase_grad_.size());

    const LayerPerturbation *p = perturb_;
    // G before modulation: G_diff = G_out * conj(gamma * e^{j phi}),
    // times conj(e^{j eps}) when a phase screen was applied.
    kernels::cmulConjScaledInterleaved(reals(g), gamma_, reals(modulation_),
                                       g.size());
    if (p && p->has_noise)
        kernels::cmulInterleaved(reals(g), reals(p->noise_conj), g.size());

    propagator_->adjointInto(g, g, workspace, p ? &p->hop : nullptr);
}

std::vector<ParamView>
DiffractiveLayer::params()
{
    return {ParamView{"phase", &phase_.raw(), &phase_grad_.raw()}};
}

Json
DiffractiveLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["gamma"] = Json(gamma_);
    Json phases;
    for (std::size_t i = 0; i < phase_.size(); ++i)
        phases.push(Json(phase_[i]));
    j["phase"] = std::move(phases);
    return j;
}

std::unique_ptr<DiffractiveLayer>
DiffractiveLayer::fromJson(const Json &j,
                           std::shared_ptr<const Propagator> propagator)
{
    auto layer = std::make_unique<DiffractiveLayer>(
        std::move(propagator), j.numberOr("gamma", 1.0));
    const auto &phases = j.at("phase").asArray();
    if (phases.size() != layer->phase_.size())
        throw JsonError("diffractive layer phase size mismatch");
    for (std::size_t i = 0; i < phases.size(); ++i)
        layer->phase_[i] = phases[i].asNumber();
    return layer;
}

} // namespace lightridge
