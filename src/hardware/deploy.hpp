/**
 * @file
 * Hardware deployment simulator: the software-to-hardware realization gap.
 *
 * deployRaw() models what happens when a raw-trained DONN is pushed onto a
 * physical device: continuous trained phases are quantized to the nearest
 * available device level, the device's coupled amplitude response applies,
 * and per-pixel fabrication variation perturbs every unit. deployCodesign()
 * does the same for a codesign-trained model, whose argmax states are
 * realizable exactly - only fabrication variation remains. Comparing the
 * two reproduces the out-of-box deployment-accuracy story of the paper's
 * Figure 1 (>= 30% degradation without codesign, ~3% with).
 */
#pragma once

#include <memory>

#include "core/dataset.hpp"
#include "core/model.hpp"
#include "hardware/cmos.hpp"
#include "hardware/slm.hpp"

namespace lightridge {

/**
 * Frozen complex modulation layer used by deployed (hardware) models:
 * free-space hop followed by a fixed per-unit complex multiplication.
 * Not trainable; backwardInPlace() is provided for completeness (pure
 * adjoint).
 */
class FixedModulationLayer : public Layer
{
  public:
    FixedModulationLayer(std::shared_ptr<const Propagator> propagator,
                         Field modulation);

    std::string kind() const override { return "fixed"; }
    void forwardInPlace(Field &u, bool training,
                        PropagationWorkspace &workspace) override;
    void backwardInPlace(Field &g, PropagationWorkspace &workspace) override;
    void inferInPlace(Field &u,
                      PropagationWorkspace &workspace) const override;
    LayerPtr clone() const override
    {
        return std::make_unique<FixedModulationLayer>(*this);
    }
    Json toJson() const override;

    const Field &modulation() const { return modulation_; }

  private:
    std::shared_ptr<const Propagator> propagator_;
    Field modulation_;
};

/** How trained phases are mapped to device control levels. */
enum class CalibrationMode
{
    /**
     * Out-of-box: assume a linear device response (no response-curve
     * measurement). This is what Fig. 1 calls deployment *before* the
     * expensive manual hardware calibration.
     */
    OutOfBox,
    /** Manually calibrated: nearest level by measured phase. */
    Calibrated,
};

/**
 * Deploy a raw-trained model onto a device: level quantization (per the
 * calibration mode) + amplitude coupling + fabrication variation.
 * Returns the hardware model.
 */
DonnModel deployRaw(const DonnModel &model, const SlmDevice &device,
                    const FabricationVariation &variation, Rng *rng,
                    CalibrationMode mode = CalibrationMode::OutOfBox);

/**
 * Deploy a codesign-trained model: argmax device states (exact) +
 * fabrication variation only.
 */
DonnModel deployCodesign(const DonnModel &model,
                         const FabricationVariation &variation, Rng *rng);

/**
 * Accuracy of a deployed model with the CMOS detector in the loop
 * (shot/read noise + ADC quantization before region integration).
 */
Real evaluateDeployed(DonnModel &deployed, const ClassDataset &data,
                      const CmosDetector &cmos, Rng *rng);

/**
 * Detector-plane intensity as captured by the hardware camera for one
 * input image; used for the Fig. 6 simulation-vs-measurement comparison.
 */
RealMap captureDetectorImage(DonnModel &deployed, const RealMap &image,
                             const CmosDetector &cmos, Rng *rng);

} // namespace lightridge
