#include "core/codesign_layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "optics/perturbation.hpp"

namespace lightridge {

CodesignLayer::CodesignLayer(std::shared_ptr<const Propagator> propagator,
                             DeviceLut lut, Real tau, Real gamma, Rng *rng)
    : propagator_(std::move(propagator)), lut_(std::move(lut)), tau_(tau),
      gamma_(gamma), rng_(rng)
{
    if (lut_.size() == 0)
        throw std::invalid_argument("CodesignLayer: empty device LUT");
    if (tau_ <= 0)
        throw std::invalid_argument("CodesignLayer: tau must be positive");
    const std::size_t n = propagator_->config().grid.n;
    logits_.assign(n * n * lut_.size(), 0.0);
    logits_grad_.assign(logits_.size(), 0.0);
}

// The published table is immutable, so sharing the pointer is safe; the
// mutex is per-instance and starts fresh. The rng_ pointer is copied
// as-is; parallel trainers rewire replicas via setRng(). Initializing
// in the member list (via publishedModulation(), which locks the source
// instance) keeps the constructor free of guarded-member writes.
CodesignLayer::CodesignLayer(const CodesignLayer &other)
    : propagator_(other.propagator_), lut_(other.lut_), tau_(other.tau_),
      gamma_(other.gamma_), rng_(other.rng_), logits_(other.logits_),
      logits_grad_(other.logits_grad_),
      infer_modulation_(other.publishedModulation()),
      cached_probs_(other.cached_probs_),
      cached_diffracted_(other.cached_diffracted_),
      cached_modulation_(other.cached_modulation_)
{}

std::shared_ptr<const CodesignLayer::InferModulation>
CodesignLayer::publishedModulation() const
{
    MutexLock lock(infer_cache_mutex_);
    return infer_modulation_;
}

std::size_t
CodesignLayer::sideLength() const
{
    return propagator_->config().grid.n;
}

void
CodesignLayer::unitSoftmax(std::size_t i, bool with_noise, Real *out)
{
    const std::size_t k = lut_.size();
    const Real *l = logits_.data() + i * k;
    Real best = -1e300;
    for (std::size_t j = 0; j < k; ++j) {
        Real v = l[j];
        if (with_noise && rng_ != nullptr)
            v += rng_->gumbel();
        out[j] = v / tau_;
        best = std::max(best, out[j]);
    }
    Real total = 0;
    for (std::size_t j = 0; j < k; ++j) {
        out[j] = std::exp(out[j] - best);
        total += out[j];
    }
    for (std::size_t j = 0; j < k; ++j)
        out[j] /= total;
}

void
CodesignLayer::forwardInPlace(Field &u, bool training,
                              PropagationWorkspace &workspace)
{
    if (!training) {
        inferInPlace(u, workspace);
        return;
    }

    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    const LayerPerturbation *pert = perturb_;
    propagator_->forwardInto(u, cached_diffracted_, workspace,
                             pert ? &pert->hop : nullptr);
    ensureFieldShape(cached_modulation_, n, n);

    cached_probs_.resize(n * n * k);
    for (std::size_t i = 0; i < n * n; ++i) {
        Real *p = cached_probs_.data() + i * k;
        unitSoftmax(i, /*with_noise=*/true, p);
        Complex m{0, 0};
        for (std::size_t j = 0; j < k; ++j)
            m += p[j] * lut_.levels[j];
        cached_modulation_[i] = m;
    }

    ensureFieldShape(u, n, n);
    if (pert && pert->has_noise) {
        for (std::size_t i = 0; i < u.size(); ++i)
            u[i] = gamma_ * cached_diffracted_[i] * cached_modulation_[i] *
                   pert->noise[i];
        return;
    }
    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = gamma_ * cached_diffracted_[i] * cached_modulation_[i];
}

std::shared_ptr<const CodesignLayer::InferModulation>
CodesignLayer::inferModulation() const
{
    MutexLock lock(infer_cache_mutex_);
    if (infer_modulation_ && infer_modulation_->logits == logits_)
        return infer_modulation_;
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    auto fresh = std::make_shared<InferModulation>();
    fresh->table = Field(n, n);
    // Deployment: exact argmax device state per unit.
    for (std::size_t i = 0; i < n * n; ++i) {
        const Real *l = logits_.data() + i * k;
        std::size_t best = std::max_element(l, l + k) - l;
        fresh->table[i] = lut_.levels[best];
    }
    fresh->logits = logits_;
    infer_modulation_ = fresh;
    return fresh;
}

void
CodesignLayer::inferInPlace(Field &u, PropagationWorkspace &workspace) const
{
    std::shared_ptr<const InferModulation> mod = inferModulation();
    const LayerPerturbation *pert = perturb_;
    propagator_->forwardInto(u, u, workspace, pert ? &pert->hop : nullptr);
    const Field &table = mod->table;
    if (pert && pert->has_noise) {
        for (std::size_t i = 0; i < u.size(); ++i)
            u[i] = gamma_ * u[i] * table[i] * pert->noise[i];
        return;
    }
    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = gamma_ * u[i] * table[i];
}

LayerPtr
CodesignLayer::clone() const
{
    // The rng_ pointer is copied as-is; parallel trainers rewire each
    // replica to its own noise source via setRng().
    return std::make_unique<CodesignLayer>(*this);
}

void
CodesignLayer::backwardInPlace(Field &g, PropagationWorkspace &workspace)
{
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    if (cached_probs_.size() != n * n * k)
        throw std::logic_error("CodesignLayer::backward before forward");

    const LayerPerturbation *pert = perturb_;
    const bool noisy = pert && pert->has_noise;
    std::vector<Real> dldp(k);
    for (std::size_t i = 0; i < n * n; ++i) {
        // dL/dp_j = Re(conj(G_out) * gamma * U_diff * e^{j eps} * m_j)
        Complex base = gamma_ * cached_diffracted_[i];
        if (noisy)
            base *= pert->noise[i];
        Complex gc = std::conj(g[i]);
        Real inner = 0;
        const Real *p = cached_probs_.data() + i * k;
        for (std::size_t j = 0; j < k; ++j) {
            dldp[j] = std::real(gc * base * lut_.levels[j]);
            inner += p[j] * dldp[j];
        }
        // Softmax Jacobian with the 1/tau factor of the relaxation.
        Real *lg = logits_grad_.data() + i * k;
        for (std::size_t j = 0; j < k; ++j)
            lg[j] += p[j] * (dldp[j] - inner) / tau_;
    }

    if (noisy) {
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] = g[i] * std::conj(gamma_ * cached_modulation_[i]) *
                   pert->noise_conj[i];
    } else {
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] = g[i] * std::conj(gamma_ * cached_modulation_[i]);
    }
    propagator_->adjointInto(g, g, workspace, pert ? &pert->hop : nullptr);
}

std::vector<ParamView>
CodesignLayer::params()
{
    return {ParamView{"logits", &logits_, &logits_grad_}};
}

std::vector<std::size_t>
CodesignLayer::levelIndices() const
{
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    std::vector<std::size_t> out(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        const Real *l = logits_.data() + i * k;
        out[i] = std::max_element(l, l + k) - l;
    }
    return out;
}

void
CodesignLayer::initFromPhase(const RealMap &phase, Real confidence)
{
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    if (phase.size() != n * n)
        throw std::invalid_argument("initFromPhase: shape mismatch");
    for (std::size_t i = 0; i < n * n; ++i) {
        std::size_t best = lut_.nearestPhase(phase[i]);
        Real *l = logits_.data() + i * k;
        std::fill(l, l + k, Real(0));
        l[best] = confidence;
    }
}

Json
CodesignLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["gamma"] = Json(gamma_);
    j["tau"] = Json(tau_);
    Json lut;
    for (const Complex &m : lut_.levels) {
        Json entry;
        entry.push(Json(m.real()));
        entry.push(Json(m.imag()));
        lut.push(std::move(entry));
    }
    j["lut"] = std::move(lut);
    Json logits;
    for (Real v : logits_)
        logits.push(Json(v));
    j["logits"] = std::move(logits);
    return j;
}

std::unique_ptr<CodesignLayer>
CodesignLayer::fromJson(const Json &j,
                        std::shared_ptr<const Propagator> propagator)
{
    DeviceLut lut;
    for (const Json &entry : j.at("lut").asArray()) {
        const auto &pair = entry.asArray();
        lut.levels.emplace_back(pair[0].asNumber(), pair[1].asNumber());
    }
    auto layer = std::make_unique<CodesignLayer>(
        std::move(propagator), std::move(lut), j.numberOr("tau", 1.0),
        j.numberOr("gamma", 1.0));
    const auto &logits = j.at("logits").asArray();
    if (logits.size() != layer->logits_.size())
        throw JsonError("codesign layer logits size mismatch");
    for (std::size_t i = 0; i < logits.size(); ++i)
        layer->logits_[i] = logits[i].asNumber();
    return layer;
}

} // namespace lightridge
