/**
 * @file
 * Complex-field layer normalization (Section 5.6.2).
 *
 * The segmentation architecture inserts a LayerNorm before the detector
 * plane *during training only* to smooth gradient scales; inference is the
 * identity (the optical system cannot normalize). Two variants:
 *
 *  - RMS mode (default): y = x / sqrt(mean|x|^2 + eps). A pure global
 *    scale, so the inference-time (un-normalized) output differs from the
 *    training-time output only by exposure - which the detector's
 *    auto-exposure absorbs. This is the variant the segmentation stack
 *    uses.
 *  - Mean-subtracting mode: y = (x - mean(x)) / sqrt(var(x) + eps), the
 *    literal complex analogue of [Ba et al. 2016].
 */
#pragma once

#include "core/layer.hpp"

namespace lightridge {

/** Training-only complex layer normalization. */
class LayerNormLayer : public Layer
{
  public:
    explicit LayerNormLayer(Real eps = 1e-12, bool subtract_mean = false)
        : eps_(eps), subtract_mean_(subtract_mean)
    {}

    std::string kind() const override { return "layernorm"; }

    void forwardInPlace(Field &u, bool training,
                        PropagationWorkspace &workspace) override;
    void backwardInPlace(Field &g, PropagationWorkspace &workspace) override;
    /** Inference is the identity: the optical system cannot normalize. */
    void inferInPlace(Field &, PropagationWorkspace &) const override {}
    LayerPtr clone() const override
    {
        return std::make_unique<LayerNormLayer>(*this);
    }
    Json toJson() const override;

    bool subtractsMean() const { return subtract_mean_; }

  private:
    Real eps_;
    bool subtract_mean_;
    Field cached_y_;
    Real cached_sigma_ = 1.0;
    bool active_ = false;
};

} // namespace lightridge
