#include "hardware/deploy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lightridge {

FixedModulationLayer::FixedModulationLayer(
    std::shared_ptr<const Propagator> propagator, Field modulation)
    : propagator_(std::move(propagator)), modulation_(std::move(modulation))
{
    const std::size_t n = propagator_->config().grid.n;
    if (modulation_.rows() != n || modulation_.cols() != n)
        throw std::invalid_argument("FixedModulationLayer: shape mismatch");
}

void
FixedModulationLayer::forwardInPlace(Field &u, bool,
                                     PropagationWorkspace &workspace)
{
    inferInPlace(u, workspace);
}

void
FixedModulationLayer::inferInPlace(Field &u,
                                   PropagationWorkspace &workspace) const
{
    propagator_->forwardInto(u, u, workspace);
    u.hadamard(modulation_);
}

void
FixedModulationLayer::backwardInPlace(Field &g,
                                      PropagationWorkspace &workspace)
{
    g.hadamardConj(modulation_);
    propagator_->adjointInto(g, g, workspace);
}

Json
FixedModulationLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    Json mod;
    for (std::size_t i = 0; i < modulation_.size(); ++i) {
        mod.push(Json(modulation_[i].real()));
        mod.push(Json(modulation_[i].imag()));
    }
    j["modulation"] = std::move(mod);
    return j;
}

namespace {

/** Per-pixel fabrication perturbation of one modulation state. */
Complex
perturb(Complex m, const FabricationVariation &variation, Rng *rng)
{
    if (rng == nullptr)
        return m;
    Real dphi = variation.phase_sigma > 0
                    ? rng->normal(0, variation.phase_sigma)
                    : 0.0;
    Real da = variation.amplitude_sigma > 0
                  ? rng->normal(0, variation.amplitude_sigma)
                  : 0.0;
    return m * std::polar(Real(1) + da, dphi);
}

/** Clone a model's spec/laser/detector into an empty hardware model. */
DonnModel
cloneShell(const DonnModel &model)
{
    DonnModel out(model.spec(), model.laser());
    if (model.detector().numClasses() > 0)
        out.setDetector(model.detector());
    return out;
}

} // namespace

DonnModel
deployRaw(const DonnModel &model, const SlmDevice &device,
          const FabricationVariation &variation, Rng *rng,
          CalibrationMode mode)
{
    DonnModel hw = cloneShell(model);
    for (std::size_t i = 0; i < model.depth(); ++i) {
        const auto *raw =
            dynamic_cast<const DiffractiveLayer *>(model.layer(i));
        if (raw == nullptr)
            throw std::invalid_argument(
                "deployRaw expects diffractive layers only");
        const RealMap &phase = raw->phase();
        Field modulation(phase.rows(), phase.cols());
        for (std::size_t p = 0; p < phase.size(); ++p) {
            std::size_t level = mode == CalibrationMode::Calibrated
                                    ? device.levelForPhase(phase[p])
                                    : device.levelAssumingLinear(phase[p]);
            Complex m = device.lut().levels[level] * raw->gamma();
            modulation[p] = perturb(m, variation, rng);
        }
        hw.addLayer(std::make_unique<FixedModulationLayer>(
            hw.hopPropagator(), std::move(modulation)));
    }
    return hw;
}

DonnModel
deployCodesign(const DonnModel &model, const FabricationVariation &variation,
               Rng *rng)
{
    DonnModel hw = cloneShell(model);
    for (std::size_t i = 0; i < model.depth(); ++i) {
        const auto *cd = dynamic_cast<const CodesignLayer *>(model.layer(i));
        if (cd == nullptr)
            throw std::invalid_argument(
                "deployCodesign expects codesign layers only");
        std::vector<std::size_t> levels = cd->levelIndices();
        std::size_t n = cd->sideLength();
        Field modulation(n, n);
        for (std::size_t p = 0; p < levels.size(); ++p) {
            Complex m = cd->lut().levels[levels[p]] * cd->gamma();
            modulation[p] = perturb(m, variation, rng);
        }
        hw.addLayer(std::make_unique<FixedModulationLayer>(
            hw.hopPropagator(), std::move(modulation)));
    }
    return hw;
}

Real
evaluateDeployed(DonnModel &deployed, const ClassDataset &data,
                 const CmosDetector &cmos, Rng *rng)
{
    if (data.size() == 0)
        return 0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        Field u = deployed.forwardField(deployed.encode(data.images[i]),
                                        false);
        RealMap digitized = cmos.measure(u.intensity(), rng);
        std::vector<Real> logits =
            deployed.detector().readoutFromIntensity(digitized);
        int pred = static_cast<int>(
            std::max_element(logits.begin(), logits.end()) - logits.begin());
        if (pred == data.labels[i])
            ++correct;
    }
    return static_cast<Real>(correct) / data.size();
}

RealMap
captureDetectorImage(DonnModel &deployed, const RealMap &image,
                     const CmosDetector &cmos, Rng *rng)
{
    Field u = deployed.forwardField(deployed.encode(image), false);
    return cmos.measure(u.intensity(), rng);
}

} // namespace lightridge
