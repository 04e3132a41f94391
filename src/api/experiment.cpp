#include "api/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include <memory>

#include "core/layer_norm.hpp"
#include "core/skip.hpp"
#include "data/shard.hpp"
#include "data/stream.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_fashion.hpp"
#include "data/synth_scenes.hpp"
#include "utils/log.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

namespace lightridge {

namespace {

/** Strictness helper: every object key must be in the allowed set. */
template <typename Keys>
void
expectKeysIn(const Json &j, const Keys &allowed, const std::string &where)
{
    for (const auto &entry : j.asObject()) {
        bool known = false;
        for (const auto &key : allowed)
            known = known || entry.first == key;
        if (!known)
            throw JsonError("unknown key in " + where + ": " + entry.first);
    }
}

void
expectKeys(const Json &j, std::initializer_list<const char *> allowed,
           const std::string &where)
{
    expectKeysIn(j, allowed, where);
}

std::size_t
sizeOr(const Json &j, const std::string &key, std::size_t fallback)
{
    return j.has(key) ? static_cast<std::size_t>(j.at(key).asNumber())
                      : fallback;
}

// ---- enum <-> string maps ------------------------------------------------

const char *
approxTag(Diffraction d)
{
    switch (d) {
    case Diffraction::Fresnel:
        return "fresnel";
    case Diffraction::Fraunhofer:
        return "fraunhofer";
    default:
        return "rayleigh_sommerfeld";
    }
}

Diffraction
approxFromTag(const std::string &name)
{
    if (name == "rayleigh_sommerfeld")
        return Diffraction::RayleighSommerfeld;
    if (name == "fresnel")
        return Diffraction::Fresnel;
    if (name == "fraunhofer")
        return Diffraction::Fraunhofer;
    throw JsonError("unknown diffraction approximation: " + name);
}

const char *
methodName(PropagationMethod m)
{
    return m == PropagationMethod::ImpulseResponse ? "impulse_response"
                                                   : "transfer_function";
}

PropagationMethod
methodFromName(const std::string &name)
{
    if (name == "transfer_function")
        return PropagationMethod::TransferFunction;
    if (name == "impulse_response")
        return PropagationMethod::ImpulseResponse;
    throw JsonError("unknown propagation method: " + name);
}

const char *
lossName(LossKind loss)
{
    return loss == LossKind::CrossEntropy ? "cross_entropy" : "softmax_mse";
}

LossKind
lossFromName(const std::string &name)
{
    if (name == "softmax_mse")
        return LossKind::SoftmaxMse;
    if (name == "cross_entropy")
        return LossKind::CrossEntropy;
    throw JsonError("unknown loss kind: " + name);
}

/** Validate a layer-spec array against the factory (strict, recursive). */
void
validateLayerSpecs(const Json &layers)
{
    for (const Json &layer : layers.asArray())
        LayerFactory::instance().validateSpec(layer);
}

/**
 * Free-space hops a spec entry contributes to the through-path:
 * diffractive/codesign layers carry one hop each (times "count"),
 * layernorm carries none, and a skip block spans its interior's hops.
 * Unknown custom kinds are assumed to carry one hop per entry.
 */
std::size_t
specHops(const Json &layer_spec)
{
    const std::string &kind = layer_spec.at("kind").asString();
    if (kind == "layernorm")
        return 0;
    if (kind == "skip") {
        std::size_t hops = 0;
        for (const Json &inner : layer_spec.at("inner").asArray())
            hops += specHops(inner);
        return hops;
    }
    return sizeOr(layer_spec, "count", 1);
}

} // namespace

// --------------------------------------------------------------------------
// LayerFactory
// --------------------------------------------------------------------------

LayerFactory::LayerFactory()
{
    registerKind(
        "diffractive",
        [](const Json &j, const Context &ctx) {
            const std::size_t count = sizeOr(j, "count", 1);
            const Real gamma = j.numberOr("gamma", 1.0);
            std::vector<LayerPtr> layers;
            for (std::size_t i = 0; i < count; ++i)
                layers.push_back(std::make_unique<DiffractiveLayer>(
                    ctx.model->hopPropagator(), gamma, ctx.rng));
            return layers;
        },
        {"kind", "count", "gamma"});

    registerKind(
        "codesign",
        [](const Json &j, const Context &ctx) {
            const std::size_t count = sizeOr(j, "count", 1);
            const std::size_t levels = sizeOr(j, "levels", 16);
            const Real tau = j.numberOr("tau", 1.0);
            const Real gamma = j.numberOr("gamma", 1.0);
            DeviceLut lut = DeviceLut::idealPhase(levels);
            std::vector<LayerPtr> layers;
            for (std::size_t i = 0; i < count; ++i)
                layers.push_back(std::make_unique<CodesignLayer>(
                    ctx.model->hopPropagator(), lut, tau, gamma, ctx.rng));
            return layers;
        },
        {"kind", "count", "levels", "tau", "gamma"});

    registerKind(
        "layernorm",
        [](const Json &j, const Context &) {
            std::vector<LayerPtr> layers;
            layers.push_back(std::make_unique<LayerNormLayer>(
                j.numberOr("eps", 1e-12),
                j.has("subtract_mean") && j.at("subtract_mean").asBool()));
            return layers;
        },
        {"kind", "eps", "subtract_mean"});

    registerKind(
        "skip",
        [](const Json &j, const Context &ctx) {
            if (!j.has("inner"))
                throw JsonError("skip layer spec requires \"inner\"");
            // Shortcut path spans the inner block's total optical path:
            // count free-space hops, not layer entries (layernorm has no
            // propagator; nested skips span their own interiors).
            const std::size_t hops = specHops(j);
            std::vector<LayerPtr> inner;
            for (const Json &inner_spec : j.at("inner").asArray())
                for (LayerPtr &layer :
                     LayerFactory::instance().build(inner_spec, ctx))
                    inner.push_back(std::move(layer));
            PropagatorConfig sc = ctx.model->hopPropagator()->config();
            sc.distance *=
                static_cast<Real>(std::max<std::size_t>(hops, 1));
            std::vector<LayerPtr> layers;
            layers.push_back(std::make_unique<OpticalSkipLayer>(
                std::move(inner), std::make_shared<Propagator>(sc)));
            return layers;
        },
        {"kind", "inner"});
}

LayerFactory &
LayerFactory::instance()
{
    static LayerFactory factory;
    return factory;
}

void
LayerFactory::registerKind(const std::string &kind, Builder builder,
                           std::vector<std::string> allowed_keys)
{
    builders_[kind] = Entry{std::move(builder), std::move(allowed_keys)};
}

bool
LayerFactory::has(const std::string &kind) const
{
    return builders_.count(kind) > 0;
}

std::vector<std::string>
LayerFactory::kinds() const
{
    std::vector<std::string> names;
    names.reserve(builders_.size());
    for (const auto &entry : builders_)
        names.push_back(entry.first);
    return names;
}

void
LayerFactory::validateSpec(const Json &layer_spec) const
{
    if (!layer_spec.isObject() || !layer_spec.has("kind"))
        throw JsonError("layer spec without \"kind\"");
    const std::string &kind = layer_spec.at("kind").asString();
    auto it = builders_.find(kind);
    if (it == builders_.end())
        throw JsonError("unknown layer kind: " + kind);
    if (!it->second.keys.empty())
        expectKeysIn(layer_spec, it->second.keys, kind + " layer spec");
    if (kind == "skip" && layer_spec.has("inner"))
        for (const Json &inner : layer_spec.at("inner").asArray())
            validateSpec(inner);
}

std::vector<LayerPtr>
LayerFactory::build(const Json &layer_spec, const Context &context) const
{
    validateSpec(layer_spec);
    const std::string &kind = layer_spec.at("kind").asString();
    return builders_.at(kind).builder(layer_spec, context);
}

// --------------------------------------------------------------------------
// TrainConfig <-> JSON
// --------------------------------------------------------------------------

Json
trainConfigToJson(const TrainConfig &config)
{
    Json j;
    j["epochs"] = Json(config.epochs);
    j["batch"] = Json(config.batch);
    j["lr"] = Json(config.lr);
    j["loss"] = Json(lossName(config.loss));
    j["seed"] = Json(static_cast<std::size_t>(config.seed));
    j["shuffle"] = Json(config.shuffle);
    j["calibrate"] = Json(config.calibrate);
    j["calib_target"] = Json(config.calib_target);
    j["calib_probe"] = Json(config.calib_probe);
    j["gamma"] = Json(config.gamma);
    j["tau_start"] = Json(config.tau_start);
    j["tau_end"] = Json(config.tau_end);
    j["workers"] = Json(config.workers);
    j["dev_eval_every_batches"] = Json(config.dev_eval_every_batches);
    j["verbose"] = Json(config.verbose);
    return j;
}

TrainConfig
trainConfigFromJson(const Json &j)
{
    expectKeys(j,
               {"epochs", "batch", "lr", "loss", "seed", "shuffle",
                "calibrate", "calib_target", "calib_probe", "gamma",
                "tau_start", "tau_end", "workers", "dev_eval_every_batches",
                "verbose"},
               "train config");
    TrainConfig config;
    config.epochs = static_cast<int>(j.numberOr("epochs", config.epochs));
    config.batch = sizeOr(j, "batch", config.batch);
    config.lr = j.numberOr("lr", config.lr);
    if (j.has("loss"))
        config.loss = lossFromName(j.at("loss").asString());
    config.seed = static_cast<uint64_t>(
        j.numberOr("seed", static_cast<double>(config.seed)));
    if (j.has("shuffle"))
        config.shuffle = j.at("shuffle").asBool();
    if (j.has("calibrate"))
        config.calibrate = j.at("calibrate").asBool();
    config.calib_target = j.numberOr("calib_target", config.calib_target);
    config.calib_probe = sizeOr(j, "calib_probe", config.calib_probe);
    config.gamma = j.numberOr("gamma", config.gamma);
    config.tau_start = j.numberOr("tau_start", config.tau_start);
    config.tau_end = j.numberOr("tau_end", config.tau_end);
    config.workers = sizeOr(j, "workers", config.workers);
    config.dev_eval_every_batches = sizeOr(j, "dev_eval_every_batches",
                                           config.dev_eval_every_batches);
    if (j.has("verbose"))
        config.verbose = j.at("verbose").asBool();
    return config;
}

// --------------------------------------------------------------------------
// ExperimentSpec
// --------------------------------------------------------------------------

Json
ExperimentSpec::toJson() const
{
    Json j;
    j["name"] = Json(name);
    j["task"] = Json(task);
    if (source.kind == "synth") {
        // The historical string form round-trips untouched.
        j["dataset"] = Json(dataset);
    } else {
        Json ds;
        ds["kind"] = Json(source.kind);
        ds["manifest"] = Json(source.manifest);
        if (!source.test_manifest.empty())
            ds["test_manifest"] = Json(source.test_manifest);
        ds["prefetch"] = Json(source.prefetch);
        if (source.preload)
            ds["preload"] = Json(true);
        j["dataset"] = std::move(ds);
    }

    Json dj;
    dj["train"] = Json(data.train_samples);
    dj["test"] = Json(data.test_samples);
    dj["seed"] = Json(static_cast<std::size_t>(data.seed));
    dj["image_size"] = Json(data.image_size);
    j["data"] = std::move(dj);

    Json sj;
    sj["size"] = Json(system.size);
    sj["pixel"] = Json(system.pixel);
    sj["distance"] = Json(system.distance);
    sj["approx"] = Json(approxTag(system.approx));
    sj["method"] = Json(methodName(system.method));
    sj["pad_factor"] = Json(system.pad_factor);
    j["system"] = std::move(sj);

    j["wavelength"] = Json(wavelength);
    j["model_seed"] = Json(static_cast<std::size_t>(model_seed));
    if (!layers.isNull())
        j["layers"] = layers;

    Json det;
    det["classes"] = Json(detector.classes);
    det["det_size"] = Json(detector.det_size);
    det["mode"] = Json(detector.mode);
    j["detector"] = std::move(det);

    j["train"] = trainConfigToJson(train);
    if (perturbation.active())
        j["perturbation"] = perturbation.toJson();
    return j;
}

ExperimentSpec
ExperimentSpec::fromJson(const Json &j)
{
    expectKeys(j,
               {"name", "task", "dataset", "data", "system", "wavelength",
                "model_seed", "layers", "detector", "train",
                "perturbation"},
               "experiment");
    ExperimentSpec spec;
    if (j.has("name"))
        spec.name = j.at("name").asString();
    if (j.has("task"))
        spec.task = j.at("task").asString();
    if (spec.task != "classification" && spec.task != "segmentation" &&
        spec.task != "rgb")
        throw JsonError("unknown task kind: " + spec.task);
    if (j.has("dataset") && j.at("dataset").isObject()) {
        const Json &ds = j.at("dataset");
        expectKeys(ds,
                   {"kind", "name", "manifest", "test_manifest", "prefetch",
                    "preload"},
                   "dataset");
        if (ds.has("kind"))
            spec.source.kind = ds.at("kind").asString();
        if (spec.source.kind == "sharded") {
            if (ds.has("name"))
                throw JsonError(
                    "dataset: \"name\" only applies to kind \"synth\"");
            if (!ds.has("manifest"))
                throw JsonError(
                    "dataset: kind \"sharded\" requires \"manifest\"");
            spec.source.manifest = ds.at("manifest").asString();
            if (ds.has("test_manifest"))
                spec.source.test_manifest =
                    ds.at("test_manifest").asString();
            spec.source.prefetch =
                sizeOr(ds, "prefetch", spec.source.prefetch);
            if (ds.has("preload"))
                spec.source.preload = ds.at("preload").asBool();
        } else if (spec.source.kind == "synth") {
            if (ds.has("manifest") || ds.has("test_manifest") ||
                ds.has("prefetch") || ds.has("preload"))
                throw JsonError("dataset: manifest/test_manifest/prefetch/"
                                "preload only apply to kind \"sharded\"");
            if (ds.has("name"))
                spec.dataset = ds.at("name").asString();
        } else {
            throw JsonError("unknown dataset kind: " + spec.source.kind);
        }
    } else if (j.has("dataset")) {
        spec.dataset = j.at("dataset").asString();
    }
    if (spec.source.kind == "synth" && spec.dataset != "digits" &&
        spec.dataset != "fashion" && spec.dataset != "city" &&
        spec.dataset != "scenes")
        throw JsonError("unknown dataset: " + spec.dataset);

    if (j.has("data")) {
        const Json &dj = j.at("data");
        expectKeys(dj, {"train", "test", "seed", "image_size"}, "data");
        spec.data.train_samples = sizeOr(dj, "train",
                                         spec.data.train_samples);
        spec.data.test_samples = sizeOr(dj, "test", spec.data.test_samples);
        spec.data.seed = static_cast<uint64_t>(
            dj.numberOr("seed", static_cast<double>(spec.data.seed)));
        spec.data.image_size = sizeOr(dj, "image_size",
                                      spec.data.image_size);
    }

    if (j.has("system")) {
        const Json &sj = j.at("system");
        expectKeys(sj,
                   {"size", "pixel", "distance", "approx", "method",
                    "pad_factor"},
                   "system");
        spec.system.size = sizeOr(sj, "size", spec.system.size);
        spec.system.pixel = sj.numberOr("pixel", spec.system.pixel);
        spec.system.distance =
            sj.numberOr("distance", spec.system.distance);
        if (sj.has("approx"))
            spec.system.approx =
                approxFromTag(sj.at("approx").asString());
        if (sj.has("method"))
            spec.system.method = methodFromName(sj.at("method").asString());
        spec.system.pad_factor = sizeOr(sj, "pad_factor",
                                        spec.system.pad_factor);
    }

    spec.wavelength = j.numberOr("wavelength", spec.wavelength);
    spec.model_seed = static_cast<uint64_t>(
        j.numberOr("model_seed", static_cast<double>(spec.model_seed)));

    if (j.has("layers")) {
        validateLayerSpecs(j.at("layers"));
        spec.layers = j.at("layers");
    }

    if (j.has("detector")) {
        const Json &det = j.at("detector");
        expectKeys(det, {"classes", "det_size", "mode"}, "detector");
        spec.detector.classes = sizeOr(det, "classes", 0);
        spec.detector.det_size = sizeOr(det, "det_size", 0);
        if (det.has("mode"))
            spec.detector.mode = det.at("mode").asString();
        if (spec.detector.mode != "intensity" &&
            spec.detector.mode != "differential")
            throw JsonError("unknown detector mode: " + spec.detector.mode);
    }

    if (j.has("train"))
        spec.train = trainConfigFromJson(j.at("train"));
    if (j.has("perturbation"))
        spec.perturbation = PerturbationSpec::fromJson(j.at("perturbation"));
    return spec;
}

ExperimentSpec
ExperimentSpec::load(const std::string &path)
{
    return fromJson(Json::load(path));
}

SystemSpec
ExperimentSpec::resolvedSystem() const
{
    SystemSpec resolved = system;
    if (resolved.distance <= 0)
        resolved.distance =
            idealDistanceHalfCone(resolved.grid(), wavelength);
    return resolved;
}

// --------------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------------

namespace {

/** Task-default architecture when the spec omits "layers". */
Json
defaultLayers(const std::string &task)
{
    Json layers;
    if (task == "segmentation") {
        // Fig. 13 topology: optical skip around the stack + LayerNorm.
        Json inner;
        Json diff;
        diff["kind"] = Json("diffractive");
        diff["count"] = Json(std::size_t{5});
        inner.push(std::move(diff));
        Json skip;
        skip["kind"] = Json("skip");
        skip["inner"] = std::move(inner);
        layers.push(std::move(skip));
        Json norm;
        norm["kind"] = Json("layernorm");
        layers.push(std::move(norm));
    } else {
        Json diff;
        diff["kind"] = Json("diffractive");
        diff["count"] = Json(std::size_t{5});
        layers.push(std::move(diff));
    }
    return layers;
}

Json
epochStatsJson(const EpochStats &stats)
{
    Json j;
    j["epoch"] = Json(stats.epoch);
    j["train_loss"] = Json(stats.train_loss);
    j["train_acc"] = Json(stats.train_acc);
    j["test_acc"] = Json(stats.test_acc);
    j["test_top3"] = Json(stats.test_top3);
    j["seconds"] = Json(stats.seconds);
    if (stats.mid_epoch) {
        j["mid_epoch"] = Json(true);
        j["batch"] = Json(stats.batch);
    }
    return j;
}

} // namespace

DonnModel
buildSpecModel(const ExperimentSpec &spec, std::size_t num_classes,
               Rng *rng)
{
    SystemSpec system = spec.resolvedSystem();
    Laser laser;
    laser.wavelength = spec.wavelength;
    DonnModel model(system, laser);

    LayerFactory::Context ctx;
    ctx.model = &model;
    ctx.rng = rng;
    const Json layers =
        spec.layers.isNull() ? defaultLayers(spec.task) : spec.layers;
    for (const Json &layer_spec : layers.asArray())
        for (LayerPtr &layer :
             LayerFactory::instance().build(layer_spec, ctx))
            model.addLayer(std::move(layer));

    std::size_t det_size = spec.detector.det_size;
    if (det_size == 0)
        det_size = std::max<std::size_t>(system.size / 10, 1);
    if (spec.detector.mode == "differential") {
        auto layout = DetectorPlane::differentialGridLayout(
            system.size, num_classes, det_size);
        model.setDetector(DetectorPlane(std::move(layout.first),
                                        std::move(layout.second)));
    } else {
        model.setDetector(DetectorPlane(DetectorPlane::gridLayout(
            system.size, num_classes, det_size)));
    }
    return model;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec,
              const Session::Callback &epoch_callback,
              const std::string &save_model_path,
              const RobustnessSweepConfig *robustness_sweep)
{
    if (robustness_sweep != nullptr && spec.task != "classification")
        throw JsonError("robustness sweep requires a classification task, "
                        "got: " + spec.task);
    ExperimentResult result;
    result.name = spec.name;
    result.task = spec.task;
    WallTimer timer;
    Rng rng(spec.model_seed);

    // Record the execution mode actually used, not just what the spec
    // asked for (Session::resolveWorkers is the engine's own rule).
    result.workers_requested = spec.train.workers;
    result.hw_threads = ThreadPool::global().workerCount();

    auto runSession = [&](Task &task) {
        result.workers_used =
            Session::resolveWorkers(spec.train, task.trainSize());
        Session session(task, spec.train);
        if (epoch_callback)
            session.addCallback(epoch_callback);
        result.history = session.fit();
        if (!save_model_path.empty() && !task.save(save_model_path))
            throw std::runtime_error("cannot write model checkpoint: " +
                                     save_model_path);
    };

    // Resolved-source fields for the report's execution block, read off
    // the source after training so bytes_read reflects what actually
    // streamed.
    auto recordSource = [&](const DataSource &source) {
        result.data_source = source.sourceKind();
        result.data_shards = source.shardSizes().size();
        result.data_prefetch = source.prefetchDepth();
        result.data_bytes_read = source.bytesRead();
    };
    const bool sharded = spec.source.kind == "sharded";

    if (spec.task == "classification") {
        ClassDataset train, test;
        bool has_test = false;
        std::unique_ptr<ClassSource> source;
        if (sharded) {
            DatasetManifest manifest =
                DatasetManifest::load(spec.source.manifest);
            if (!spec.source.test_manifest.empty()) {
                test = materializeClassDataset(
                    DatasetManifest::load(spec.source.test_manifest));
                has_test = true;
            }
            if (spec.source.preload) {
                // Parity mode: whole split in memory, but with the
                // manifest's shard layout so the epoch order matches the
                // streamed run bitwise.
                train = materializeClassDataset(manifest);
                source = std::make_unique<InMemoryClassSource>(
                    train, manifest.shardSizes());
            } else {
                source = std::make_unique<ShardedClassSource>(
                    std::move(manifest), spec.source.prefetch);
            }
        } else {
            if (spec.dataset != "digits" && spec.dataset != "fashion")
                throw JsonError("classification task needs dataset digits "
                                "or fashion, got: " + spec.dataset);
            if (spec.dataset == "digits") {
                DigitConfig dc;
                if (spec.data.image_size > 0)
                    dc.image_size = spec.data.image_size;
                train = makeSynthDigits(spec.data.train_samples,
                                        spec.data.seed, dc);
                test = makeSynthDigits(spec.data.test_samples,
                                       spec.data.seed + 1, dc);
            } else {
                FashionConfig fc;
                if (spec.data.image_size > 0)
                    fc.image_size = spec.data.image_size;
                train = makeSynthFashion(spec.data.train_samples,
                                         spec.data.seed, fc);
                test = makeSynthFashion(spec.data.test_samples,
                                        spec.data.seed + 1, fc);
            }
            has_test = true;
            source = std::make_unique<InMemoryClassSource>(train);
        }
        std::size_t classes = spec.detector.classes > 0
                                  ? spec.detector.classes
                                  : source->numClasses();
        result.num_classes = classes;
        DonnModel model = buildSpecModel(spec, classes, &rng);
        ClassificationTask task(model, *source,
                                has_test ? &test : nullptr);
        task.setPerturbationSpec(spec.perturbation);
        runSession(task);
        recordSource(*source);
        result.final_metrics = task.evaluate();
        if (robustness_sweep != nullptr) {
            if (!has_test)
                throw JsonError("robustness sweep requires a test split "
                                "(dataset has no test_manifest)");
            result.robustness =
                robustnessSweep(model, test, *robustness_sweep);
            result.has_robustness = true;
        }
    } else if (spec.task == "segmentation") {
        SegDataset train, test;
        bool has_test = false;
        std::unique_ptr<SegSource> source;
        if (sharded) {
            DatasetManifest manifest =
                DatasetManifest::load(spec.source.manifest);
            if (!spec.source.test_manifest.empty()) {
                test = materializeSegDataset(
                    DatasetManifest::load(spec.source.test_manifest));
                has_test = true;
            }
            if (spec.source.preload) {
                train = materializeSegDataset(manifest);
                source = std::make_unique<InMemorySegSource>(
                    train, manifest.shardSizes());
            } else {
                source = std::make_unique<ShardedSegSource>(
                    std::move(manifest), spec.source.prefetch);
            }
        } else {
            if (spec.dataset != "city")
                throw JsonError("segmentation task needs dataset city, "
                                "got: " + spec.dataset);
            CityConfig cc;
            if (spec.data.image_size > 0)
                cc.image_size = spec.data.image_size;
            train = makeSynthCity(spec.data.train_samples, spec.data.seed,
                                  cc);
            test = makeSynthCity(spec.data.test_samples,
                                 spec.data.seed + 1, cc);
            has_test = true;
            source = std::make_unique<InMemorySegSource>(train);
        }
        // Placeholder detector keeps serialization uniform; the output is
        // the full detector-plane intensity map.
        DonnModel model = buildSpecModel(spec, 2, &rng);
        SegmentationTask task(model, *source, has_test ? &test : nullptr);
        task.setPerturbationSpec(spec.perturbation);
        runSession(task);
        recordSource(*source);
        result.final_metrics = task.evaluate();
        if (has_test)
            result.secondary = task.evaluateMse(test);
    } else if (spec.task == "rgb") {
        if (spec.perturbation.active())
            throw JsonError("perturbation-vaccinated training is not "
                            "supported for the rgb task");
        RgbDataset train, test;
        bool has_test = false;
        std::unique_ptr<RgbSource> source;
        if (sharded) {
            DatasetManifest manifest =
                DatasetManifest::load(spec.source.manifest);
            if (!spec.source.test_manifest.empty()) {
                test = materializeRgbDataset(
                    DatasetManifest::load(spec.source.test_manifest));
                has_test = true;
            }
            if (spec.source.preload) {
                train = materializeRgbDataset(manifest);
                source = std::make_unique<InMemoryRgbSource>(
                    train, manifest.shardSizes());
            } else {
                source = std::make_unique<ShardedRgbSource>(
                    std::move(manifest), spec.source.prefetch);
            }
        } else {
            if (spec.dataset != "scenes")
                throw JsonError("rgb task needs dataset scenes, got: " +
                                spec.dataset);
            SceneConfig sc;
            if (spec.data.image_size > 0)
                sc.image_size = spec.data.image_size;
            train = makeSynthScenes(spec.data.train_samples, spec.data.seed,
                                    sc);
            test = makeSynthScenes(spec.data.test_samples,
                                   spec.data.seed + 1, sc);
            has_test = true;
            source = std::make_unique<InMemoryRgbSource>(train);
        }
        std::size_t classes = spec.detector.classes > 0
                                  ? spec.detector.classes
                                  : source->numClasses();
        result.num_classes = classes;
        std::vector<std::unique_ptr<DonnModel>> channels;
        for (int ch = 0; ch < 3; ++ch)
            channels.push_back(std::make_unique<DonnModel>(
                buildSpecModel(spec, classes, &rng)));
        MultiChannelDonn model(std::move(channels));
        RgbTask task(model, *source, has_test ? &test : nullptr);
        runSession(task);
        recordSource(*source);
        result.final_metrics = task.evaluate();
    } else {
        throw JsonError("unknown task kind: " + spec.task);
    }

    result.seconds = timer.seconds();
    return result;
}

Json
ExperimentResult::report(const ExperimentSpec &spec) const
{
    Json j;
    j["spec"] = spec.toJson();
    Json epochs;
    for (const EpochStats &stats : history)
        epochs.push(epochStatsJson(stats));
    j["epochs"] = std::move(epochs);

    Json final;
    if (task == "segmentation") {
        final["iou"] = Json(final_metrics.primary);
        final["mse"] = Json(secondary);
    } else {
        final["accuracy"] = Json(final_metrics.primary);
        final["top3_accuracy"] = Json(final_metrics.top3);
        final["num_classes"] = Json(num_classes);
        final["chance"] =
            Json(num_classes > 0 ? 1.0 / static_cast<double>(num_classes)
                                 : 0.0);
    }
    j["final"] = std::move(final);

    Json execution;
    execution["workers"] = Json(workers_used);
    execution["workers_requested"] = Json(workers_requested);
    execution["hw_threads"] = Json(hw_threads);
    execution["data_source"] = Json(data_source);
    execution["data_shards"] = Json(data_shards);
    execution["data_prefetch"] = Json(data_prefetch);
    execution["data_bytes_read"] = Json(data_bytes_read);
    j["execution"] = std::move(execution);

    if (has_robustness)
        j["robustness"] = robustness.toJson();

    j["seconds"] = Json(seconds);
    return j;
}

} // namespace lightridge
