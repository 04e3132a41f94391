/**
 * @file
 * Optical skip connection (Section 5.6.2, Figure 13a).
 *
 * A beam splitter diverts a fraction of the light around a block of
 * diffractive layers; mirrors route it over the equivalent free-space
 * distance and a second splitter recombines the two paths. Inspired by
 * ResNet residual blocks, the less-diffracted shortcut restores features
 * of the original input, improving segmentation detail. Energy is
 * conserved across the splitters: alpha^2 + beta^2 = 1.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/layer.hpp"
#include "optics/propagator.hpp"

namespace lightridge {

/** Residual-style optical block: out = alpha*branch(in) + beta*P(in). */
class OpticalSkipLayer : public Layer
{
  public:
    /**
     * @param inner the diffractive block the shortcut bypasses
     * @param shortcut free-space propagator over the bypass path (its
     *        distance should equal the block's total optical path)
     * @param alpha amplitude fraction through the block
     * @param beta amplitude fraction through the shortcut
     */
    OpticalSkipLayer(std::vector<LayerPtr> inner,
                     std::shared_ptr<const Propagator> shortcut,
                     Real alpha = 0.707106781186548,  // 50:50 splitter
                     Real beta = 0.707106781186548);

    std::string kind() const override { return "skip"; }

    void forwardInPlace(Field &u, bool training,
                        PropagationWorkspace &workspace) override;
    void backwardInPlace(Field &g, PropagationWorkspace &workspace) override;
    void inferInPlace(Field &u,
                      PropagationWorkspace &workspace) const override;
    LayerPtr clone() const override;
    std::vector<ParamView> params() override;
    Json toJson() const override;

    std::size_t innerDepth() const { return inner_.size(); }
    Layer *innerLayer(std::size_t i) { return inner_[i].get(); }

    static std::unique_ptr<OpticalSkipLayer>
    fromJson(const Json &j, std::shared_ptr<const Propagator> hop,
             std::shared_ptr<const Propagator> shortcut);

  private:
    std::vector<LayerPtr> inner_;
    std::shared_ptr<const Propagator> shortcut_;
    Real alpha_;
    Real beta_;
};

} // namespace lightridge
