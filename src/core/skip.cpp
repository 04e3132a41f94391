#include "core/skip.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/codesign_layer.hpp"
#include "core/diffractive_layer.hpp"

namespace lightridge {

OpticalSkipLayer::OpticalSkipLayer(std::vector<LayerPtr> inner,
                                   std::shared_ptr<const Propagator> shortcut,
                                   Real alpha, Real beta)
    : inner_(std::move(inner)), shortcut_(std::move(shortcut)),
      alpha_(alpha), beta_(beta)
{
    if (inner_.empty())
        throw std::invalid_argument("OpticalSkipLayer: empty block");
}

void
OpticalSkipLayer::forwardInPlace(Field &u, bool training,
                                 PropagationWorkspace &workspace)
{
    // The shortcut needs the block input after the branch has overwritten
    // u, so it is staged in a leased buffer held across the inner layers'
    // own workspace use (the arena supports nested leases).
    WorkspaceField shortcut(workspace, u.rows(), u.cols());
    std::copy(u.data(), u.data() + u.size(), shortcut->data());
    for (LayerPtr &layer : inner_)
        layer->forwardInPlace(u, training, workspace);
    shortcut_->forwardInto(shortcut.get(), shortcut.get(), workspace);

    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = alpha_ * u[i] + beta_ * shortcut.get()[i];
}

void
OpticalSkipLayer::inferInPlace(Field &u,
                               PropagationWorkspace &workspace) const
{
    WorkspaceField shortcut(workspace, u.rows(), u.cols());
    std::copy(u.data(), u.data() + u.size(), shortcut->data());
    for (const LayerPtr &layer : inner_)
        layer->inferInPlace(u, workspace);
    shortcut_->forwardInto(shortcut.get(), shortcut.get(), workspace);

    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = alpha_ * u[i] + beta_ * shortcut.get()[i];
}

LayerPtr
OpticalSkipLayer::clone() const
{
    std::vector<LayerPtr> inner;
    inner.reserve(inner_.size());
    for (const LayerPtr &layer : inner_)
        inner.push_back(layer->clone());
    return std::make_unique<OpticalSkipLayer>(std::move(inner), shortcut_,
                                              alpha_, beta_);
}

void
OpticalSkipLayer::backwardInPlace(Field &g, PropagationWorkspace &workspace)
{
    // Stage the shortcut gradient before the branch unwind overwrites g.
    WorkspaceField g_short(workspace, g.rows(), g.cols());
    std::copy(g.data(), g.data() + g.size(), g_short->data());

    // Branch path: scale by alpha, then unwind the inner block.
    g *= alpha_;
    for (auto it = inner_.rbegin(); it != inner_.rend(); ++it)
        (*it)->backwardInPlace(g, workspace);

    // Shortcut path: adjoint of the bypass propagator.
    g_short.get() *= beta_;
    shortcut_->adjointInto(g_short.get(), g_short.get(), workspace);

    g += g_short.get();
}

std::vector<ParamView>
OpticalSkipLayer::params()
{
    std::vector<ParamView> all;
    for (LayerPtr &layer : inner_)
        for (ParamView p : layer->params())
            all.push_back(p);
    return all;
}

Json
OpticalSkipLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["alpha"] = Json(alpha_);
    j["beta"] = Json(beta_);
    Json inner;
    for (const LayerPtr &layer : inner_)
        inner.push(layer->toJson());
    j["inner"] = std::move(inner);
    return j;
}

std::unique_ptr<OpticalSkipLayer>
OpticalSkipLayer::fromJson(const Json &j,
                           std::shared_ptr<const Propagator> hop,
                           std::shared_ptr<const Propagator> shortcut)
{
    std::vector<LayerPtr> inner;
    for (const Json &layer_json : j.at("inner").asArray()) {
        const std::string &kind = layer_json.at("kind").asString();
        if (kind == "diffractive")
            inner.push_back(DiffractiveLayer::fromJson(layer_json, hop));
        else if (kind == "codesign")
            inner.push_back(CodesignLayer::fromJson(layer_json, hop));
        else
            throw JsonError("skip: unsupported inner layer " + kind);
    }
    return std::make_unique<OpticalSkipLayer>(
        std::move(inner), std::move(shortcut), j.numberOr("alpha", 1.0),
        j.numberOr("beta", 0.0));
}

} // namespace lightridge
