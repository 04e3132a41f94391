#include "core/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/layer_norm.hpp"
#include "core/skip.hpp"
#include "optics/perturbation.hpp"

namespace lightridge {

void
addCheckpointHeader(Json &j)
{
    j["format"] = Json(kCheckpointMagic);
    j["version"] = Json(kCheckpointVersion);
}

void
verifyCheckpointHeader(const Json &j, const std::string &origin)
{
    if (!j.isObject())
        throw JsonError("checkpoint " + origin +
                        ": not a JSON object (truncated or wrong file?)");
    if (!j.has("format"))
        return; // legacy headerless checkpoint: accepted as version 0
    if (!j.at("format").isString())
        throw JsonError("checkpoint " + origin +
                        ": malformed header (\"format\" is not a string)");
    const std::string &magic = j.at("format").asString();
    if (magic != kCheckpointMagic)
        throw JsonError("checkpoint " + origin +
                        ": wrong magic \"" + magic +
                        "\" (expected \"" + kCheckpointMagic + "\")");
    if (!j.has("version") || !j.at("version").isNumber())
        throw JsonError("checkpoint " + origin +
                        ": malformed header (missing \"version\")");
    const int version = j.at("version").asInt();
    if (version < 1 || version > kCheckpointVersion)
        throw JsonError("checkpoint " + origin + ": unsupported version " +
                        std::to_string(version) + " (this build reads <= " +
                        std::to_string(kCheckpointVersion) + ")");
}

Json
loadCheckpointJson(const std::string &path)
{
    Json j;
    try {
        j = Json::load(path);
    } catch (const JsonError &e) {
        throw JsonError("checkpoint " + path +
                        ": unreadable or truncated (" + e.what() + ")");
    }
    verifyCheckpointHeader(j, path);
    return j;
}

Json
SystemSpec::toJson() const
{
    Json j;
    j["size"] = Json(size);
    j["pixel"] = Json(pixel);
    j["distance"] = Json(distance);
    j["approx"] = Json(static_cast<int>(approx));
    j["method"] = Json(static_cast<int>(method));
    j["pad_factor"] = Json(pad_factor);
    return j;
}

SystemSpec
SystemSpec::fromJson(const Json &j)
{
    SystemSpec spec;
    spec.size = static_cast<std::size_t>(j.at("size").asNumber());
    spec.pixel = j.at("pixel").asNumber();
    spec.distance = j.at("distance").asNumber();
    spec.approx = static_cast<Diffraction>(j.at("approx").asInt());
    spec.method = static_cast<PropagationMethod>(j.at("method").asInt());
    spec.pad_factor = static_cast<std::size_t>(j.at("pad_factor").asNumber());
    return spec;
}

namespace {

Json
regionsToJson(const std::vector<DetectorRegion> &regions)
{
    Json out;
    for (const DetectorRegion &reg : regions) {
        Json r;
        r["r0"] = Json(reg.r0);
        r["c0"] = Json(reg.c0);
        r["h"] = Json(reg.h);
        r["w"] = Json(reg.w);
        out.push(std::move(r));
    }
    return out;
}

std::vector<DetectorRegion>
regionsFromJson(const Json &j)
{
    std::vector<DetectorRegion> regions;
    for (const Json &r : j.asArray()) {
        DetectorRegion reg;
        reg.r0 = static_cast<std::size_t>(r.at("r0").asNumber());
        reg.c0 = static_cast<std::size_t>(r.at("c0").asNumber());
        reg.h = static_cast<std::size_t>(r.at("h").asNumber());
        reg.w = static_cast<std::size_t>(r.at("w").asNumber());
        regions.push_back(reg);
    }
    return regions;
}

} // namespace

DonnModel::DonnModel(SystemSpec spec, Laser laser)
    : spec_(spec), laser_(laser)
{
    PropagatorConfig config;
    config.grid = spec_.grid();
    config.wavelength = laser_.wavelength;
    config.distance = spec_.distance;
    config.approx = spec_.approx;
    config.method = spec_.method;
    config.pad_factor = spec_.pad_factor;
    propagator_ = std::make_shared<Propagator>(config);
    source_profile_ = sourceProfile(laser_, spec_.grid());
}

void
DonnModel::addLayer(LayerPtr layer)
{
    layers_.push_back(std::move(layer));
}

void
DonnModel::setDetector(DetectorPlane detector)
{
    detector_ = std::move(detector);
}

Field
DonnModel::encode(const RealMap &image) const
{
    Field out;
    encodeInto(image, out);
    return out;
}

void
DonnModel::encodeInto(const RealMap &image, Field &out) const
{
    const Grid grid = spec_.grid();
    ensureFieldShape(out, grid.n, grid.n);
    auto window = [&](const RealMap &img) {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = source_profile_[i] * Complex{img[i], 0};
    };
    if (image.rows() == grid.n && image.cols() == grid.n) {
        window(image);
        return;
    }
    RealMap resized = resizeBilinear(image, grid.n, grid.n);
    window(resized);
}

Field
DonnModel::forwardField(const Field &input, bool training)
{
    Field u = input;
    forwardFieldInPlace(u, training, PropagationWorkspace::threadLocal());
    return u;
}

void
DonnModel::forwardFieldInPlace(Field &u, bool training,
                               PropagationWorkspace &workspace)
{
    if (!training) {
        inferFieldInPlace(u, workspace);
        return;
    }
    for (LayerPtr &layer : layers_)
        layer->forwardInPlace(u, training, workspace);
    propagator_->forwardInto(u, u, workspace,
                             perturb_ ? &perturb_->final_hop : nullptr);
}

Field
DonnModel::inferField(const Field &input) const
{
    Field u = input;
    inferFieldInPlace(u, PropagationWorkspace::threadLocal());
    return u;
}

void
DonnModel::inferFieldInPlace(Field &u, PropagationWorkspace &workspace) const
{
    for (const LayerPtr &layer : layers_)
        layer->inferInPlace(u, workspace);
    propagator_->forwardInto(u, u, workspace,
                             perturb_ ? &perturb_->final_hop : nullptr);
}

std::vector<Field>
DonnModel::forwardFieldBatch(const std::vector<Field> &inputs,
                             ThreadPool *pool) const
{
    std::vector<Field> outputs(inputs.size());
    if (pool == nullptr)
        pool = &ThreadPool::global();
    pool->parallelFor(inputs.size(), [&](std::size_t i) {
        // Each pool worker leases scratch from its own thread-local
        // arena, so concurrent samples never contend on buffers.
        outputs[i] = inputs[i];
        inferFieldInPlace(outputs[i], PropagationWorkspace::threadLocal());
    });
    return outputs;
}

std::vector<Real>
DonnModel::forwardLogits(const Field &input, bool training)
{
    Field u = forwardField(input, training);
    if (detector_.numClasses() == 0)
        throw std::logic_error("DonnModel: detector not configured");
    return training ? detector_.forward(u) : detector_.readout(u);
}

int
DonnModel::predict(const Field &input)
{
    std::vector<Real> logits = forwardLogits(input, false);
    return static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
}

void
DonnModel::backwardFromLogits(const std::vector<Real> &dlogits)
{
    backwardField(detector_.backward(dlogits));
}

void
DonnModel::backwardFromLogitsInPlace(const std::vector<Real> &dlogits,
                                     Field &g,
                                     PropagationWorkspace &workspace)
{
    detector_.backwardInto(dlogits, g);
    backwardFieldInPlace(g, workspace);
}

std::vector<Real>
DonnModel::forwardLogitsInPlace(Field &u, bool training,
                                PropagationWorkspace &workspace)
{
    if (!training)
        return inferLogitsInPlace(u, workspace);
    forwardFieldInPlace(u, training, workspace);
    if (detector_.numClasses() == 0)
        throw std::logic_error("DonnModel: detector not configured");
    return detector_.forward(u);
}

std::vector<Real>
DonnModel::inferLogitsInPlace(Field &u,
                              PropagationWorkspace &workspace) const
{
    inferFieldInPlace(u, workspace);
    if (detector_.numClasses() == 0)
        throw std::logic_error("DonnModel: detector not configured");
    return detector_.readout(u);
}

void
DonnModel::backwardField(const Field &grad_at_detector)
{
    Field g = grad_at_detector;
    backwardFieldInPlace(g, PropagationWorkspace::threadLocal());
}

void
DonnModel::backwardFieldInPlace(Field &g, PropagationWorkspace &workspace)
{
    propagator_->adjointInto(g, g, workspace,
                             perturb_ ? &perturb_->final_hop : nullptr);
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        (*it)->backwardInPlace(g, workspace);
}

void
DonnModel::setPerturbation(const PerturbationRealization *realization)
{
    perturb_ = realization;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const LayerPerturbation *lp =
            (realization && i < realization->layers.size())
                ? &realization->layers[i]
                : nullptr;
        layers_[i]->setPerturbation(lp);
    }
}

DonnModel::DonnModel(SystemSpec spec, Laser laser,
                     std::shared_ptr<const Propagator> propagator)
    : spec_(spec), laser_(laser), propagator_(std::move(propagator))
{}

DonnModel
DonnModel::clone() const
{
    DonnModel copy(spec_, laser_, propagator_); // share, don't rebuild
    copy.source_profile_ = source_profile_;     // immutable, copy not rebuild
    copy.layers_.reserve(layers_.size());
    for (const LayerPtr &layer : layers_)
        copy.layers_.push_back(layer->clone());
    copy.detector_ = detector_;
    return copy;
}

std::vector<ParamView>
DonnModel::params()
{
    std::vector<ParamView> all;
    for (LayerPtr &layer : layers_)
        for (ParamView p : layer->params())
            all.push_back(p);
    return all;
}

void
DonnModel::zeroGrad()
{
    for (LayerPtr &layer : layers_)
        layer->zeroGrad();
}

Json
DonnModel::toJson() const
{
    Json j;
    j["spec"] = spec_.toJson();
    Json laser;
    laser["wavelength"] = Json(laser_.wavelength);
    laser["profile"] = Json(static_cast<int>(laser_.profile));
    laser["waist"] = Json(laser_.waist);
    laser["power_watts"] = Json(laser_.power_watts);
    j["laser"] = std::move(laser);

    Json layers;
    for (const LayerPtr &layer : layers_)
        layers.push(layer->toJson());
    j["layers"] = std::move(layers);

    Json det;
    det["amp_factor"] = Json(detector_.ampFactor());
    det["regions"] = regionsToJson(detector_.regions());
    if (detector_.differential()) {
        det["mode"] = Json("differential");
        det["neg_regions"] = regionsToJson(detector_.negRegions());
    }
    j["detector"] = std::move(det);
    return j;
}

DonnModel
DonnModel::fromJson(const Json &j)
{
    SystemSpec spec = SystemSpec::fromJson(j.at("spec"));
    Laser laser;
    const Json &lj = j.at("laser");
    laser.wavelength = lj.at("wavelength").asNumber();
    laser.profile = static_cast<BeamProfile>(lj.at("profile").asInt());
    laser.waist = lj.numberOr("waist", 0.0);
    laser.power_watts = lj.numberOr("power_watts", 5e-3);

    DonnModel model(spec, laser);
    for (const Json &layer_json : j.at("layers").asArray()) {
        const std::string &kind = layer_json.at("kind").asString();
        if (kind == "diffractive") {
            model.addLayer(DiffractiveLayer::fromJson(layer_json,
                                                      model.propagator_));
        } else if (kind == "codesign") {
            model.addLayer(CodesignLayer::fromJson(layer_json,
                                                   model.propagator_));
        } else if (kind == "layernorm") {
            model.addLayer(std::make_unique<LayerNormLayer>(
                layer_json.numberOr("eps", 1e-12),
                layer_json.has("subtract_mean") &&
                    layer_json.at("subtract_mean").asBool()));
        } else if (kind == "skip") {
            // Shortcut path spans the inner block's total optical path.
            std::size_t inner_depth =
                layer_json.at("inner").asArray().size();
            PropagatorConfig sc = model.propagator_->config();
            sc.distance *= static_cast<Real>(inner_depth);
            model.addLayer(OpticalSkipLayer::fromJson(
                layer_json, model.propagator_,
                std::make_shared<Propagator>(sc)));
        } else {
            throw JsonError("unknown layer kind: " + kind);
        }
    }

    if (j.has("detector")) {
        const Json &det = j.at("detector");
        std::vector<DetectorRegion> regions =
            regionsFromJson(det.at("regions"));
        const bool differential =
            det.has("mode") && det.at("mode").asString() == "differential";
        if (!regions.empty() && differential) {
            model.setDetector(DetectorPlane(
                std::move(regions), regionsFromJson(det.at("neg_regions")),
                det.numberOr("amp_factor", 1.0)));
        } else if (!regions.empty()) {
            model.setDetector(DetectorPlane(std::move(regions),
                                            det.numberOr("amp_factor", 1.0)));
        }
    }
    return model;
}

bool
DonnModel::save(const std::string &path) const
{
    Json j = toJson();
    addCheckpointHeader(j);
    return j.save(path);
}

DonnModel
DonnModel::load(const std::string &path)
{
    return fromJson(loadCheckpointJson(path));
}

ModelBuilder::ModelBuilder(SystemSpec spec, Laser laser)
    : model_(spec, laser)
{}

ModelBuilder &
ModelBuilder::diffractiveLayers(std::size_t d, Real gamma, Rng *rng)
{
    for (std::size_t i = 0; i < d; ++i)
        model_.addLayer(std::make_unique<DiffractiveLayer>(
            model_.hopPropagator(), gamma, rng));
    return *this;
}

ModelBuilder &
ModelBuilder::codesignLayers(std::size_t d, const DeviceLut &lut, Real tau,
                             Real gamma, Rng *rng)
{
    for (std::size_t i = 0; i < d; ++i)
        model_.addLayer(std::make_unique<CodesignLayer>(
            model_.hopPropagator(), lut, tau, gamma, rng));
    return *this;
}

ModelBuilder &
ModelBuilder::layerNorm()
{
    model_.addLayer(std::make_unique<LayerNormLayer>());
    return *this;
}

ModelBuilder &
ModelBuilder::detectorGrid(std::size_t num_classes, std::size_t det_size)
{
    model_.setDetector(DetectorPlane(
        DetectorPlane::gridLayout(model_.spec().size, num_classes, det_size)));
    has_detector_ = true;
    return *this;
}

ModelBuilder &
ModelBuilder::detectorRegions(std::vector<DetectorRegion> regions)
{
    model_.setDetector(DetectorPlane(std::move(regions)));
    has_detector_ = true;
    return *this;
}

DonnModel
ModelBuilder::build()
{
    if (!has_detector_)
        throw std::logic_error(
            "ModelBuilder::build: no detector configured; call "
            "detectorGrid() or detectorRegions() before build()");
    return std::move(model_);
}

} // namespace lightridge
