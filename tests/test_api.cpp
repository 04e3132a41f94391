/**
 * @file
 * Declarative experiment front end: ExperimentSpec JSON round-trips,
 * strict-parsing error paths (unknown fields, bad layer kinds, bad enum
 * strings), the registry-based layer factory, and a miniature end-to-end
 * runExperiment() pass per task kind.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "api/experiment.hpp"
#include "data/shard.hpp"
#include "data/synth_digits.hpp"

namespace lightridge {
namespace {

ExperimentSpec
tinySpec()
{
    ExperimentSpec spec;
    spec.name = "tiny";
    spec.task = "classification";
    spec.dataset = "digits";
    spec.data.train_samples = 40;
    spec.data.test_samples = 20;
    spec.data.seed = 1;
    spec.system.size = 16;
    spec.system.distance = 0; // resolve via half-cone rule
    spec.model_seed = 5;
    Json layer;
    layer["kind"] = Json("diffractive");
    layer["count"] = Json(std::size_t{2});
    spec.layers.push(layer);
    spec.detector.classes = 10;
    spec.detector.det_size = 1;
    spec.train.epochs = 1;
    spec.train.batch = 8;
    spec.train.workers = 1;
    return spec;
}

TEST(ExperimentSpec, JsonRoundTripIsLossless)
{
    ExperimentSpec spec = tinySpec();
    spec.train.loss = LossKind::CrossEntropy;
    spec.system.approx = Diffraction::Fresnel;

    Json j = spec.toJson();
    ExperimentSpec back = ExperimentSpec::fromJson(j);
    EXPECT_EQ(back.toJson().dump(), j.dump());

    EXPECT_EQ(back.name, "tiny");
    EXPECT_EQ(back.task, "classification");
    EXPECT_EQ(back.data.train_samples, 40u);
    EXPECT_EQ(back.system.size, 16u);
    EXPECT_EQ(back.system.approx, Diffraction::Fresnel);
    EXPECT_EQ(back.train.loss, LossKind::CrossEntropy);
    EXPECT_EQ(back.detector.classes, 10u);
    ASSERT_TRUE(back.layers.isArray());
    EXPECT_EQ(back.layers.asArray().size(), 1u);
}

TEST(ExperimentSpec, UnknownTopLevelFieldThrows)
{
    Json j = tinySpec().toJson();
    j["epochz"] = Json(3); // typo'd key
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, UnknownTrainFieldThrows)
{
    Json j = tinySpec().toJson();
    j["train"]["learning_rate"] = Json(0.1); // not a TrainConfig key
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Nor is "pipeline": Session has no pipelined epoch loop.
    Json removed = tinySpec().toJson();
    removed["train"]["pipeline"] = Json(true);
    EXPECT_THROW(ExperimentSpec::fromJson(removed), JsonError);
}

TEST(ExperimentSpec, UnknownLayerKindThrows)
{
    Json j = tinySpec().toJson();
    Json bad;
    bad["kind"] = Json("warp_drive");
    j["layers"].push(bad);
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, UnknownLayerParamThrows)
{
    // Strictness reaches inside layer entries: a typo'd parameter fails
    // at parse time, not at build time.
    Json j = tinySpec().toJson();
    j["layers"].asArray()[0]["cout"] = Json(3); // typo of "count"
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    Json nested = tinySpec().toJson();
    Json inner_bad;
    inner_bad["kind"] = Json("diffractive");
    inner_bad["gama"] = Json(1.0); // typo inside a skip interior
    Json inner;
    inner.push(inner_bad);
    Json skip;
    skip["kind"] = Json("skip");
    skip["inner"] = std::move(inner);
    nested["layers"].push(skip);
    EXPECT_THROW(ExperimentSpec::fromJson(nested), JsonError);
}

TEST(LayerFactory, SkipShortcutCountsHopsNotEntries)
{
    // LayerNorm is the identity at inference, so a layernorm inside the
    // skip interior must not change the shortcut's optical path length:
    // inference through both specs is bitwise identical. (Counting
    // entries instead of hops would give the first spec a 4-hop
    // shortcut.)
    auto buildWith = [](bool norm_inside) {
        ExperimentSpec spec = tinySpec();
        spec.layers = Json();
        Json diff;
        diff["kind"] = Json("diffractive");
        diff["count"] = Json(std::size_t{3});
        Json inner;
        inner.push(diff);
        if (norm_inside) {
            Json norm;
            norm["kind"] = Json("layernorm");
            inner.push(norm);
        }
        Json skip;
        skip["kind"] = Json("skip");
        skip["inner"] = std::move(inner);
        spec.layers.push(skip);
        Rng rng(11);
        return buildSpecModel(spec, 10, &rng);
    };

    DonnModel with_norm = buildWith(true);
    DonnModel without_norm = buildWith(false);

    RealMap image(16, 16, 0.0);
    image(8, 8) = 1.0;
    Field a = with_norm.inferField(with_norm.encode(image));
    Field b = without_norm.inferField(without_norm.encode(image));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].real(), b[i].real());
        EXPECT_EQ(a[i].imag(), b[i].imag());
    }
}

TEST(ExperimentSpec, BadEnumStringsThrow)
{
    {
        Json j = tinySpec().toJson();
        j["task"] = Json("regression");
        EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
    }
    {
        Json j = tinySpec().toJson();
        j["system"]["approx"] = Json("geometric");
        EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
    }
    {
        Json j = tinySpec().toJson();
        j["train"]["loss"] = Json("hinge");
        EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
    }
}

TEST(ExperimentSpec, ResolvedSystemAppliesHalfConeRule)
{
    ExperimentSpec spec = tinySpec();
    SystemSpec resolved = spec.resolvedSystem();
    EXPECT_GT(resolved.distance, 0.0);
}

TEST(LayerFactory, BuildsRegisteredKindsAndRejectsUnknown)
{
    LayerFactory &factory = LayerFactory::instance();
    EXPECT_TRUE(factory.has("diffractive"));
    EXPECT_TRUE(factory.has("codesign"));
    EXPECT_TRUE(factory.has("layernorm"));
    EXPECT_TRUE(factory.has("skip"));
    EXPECT_FALSE(factory.has("warp_drive"));

    ExperimentSpec spec = tinySpec();
    Rng rng(1);
    DonnModel model = buildSpecModel(spec, 10, &rng);
    EXPECT_EQ(model.depth(), 2u);
    EXPECT_EQ(model.detector().numClasses(), 10u);

    LayerFactory::Context ctx;
    ctx.model = &model;
    ctx.rng = &rng;
    Json bad;
    bad["kind"] = Json("warp_drive");
    EXPECT_THROW(factory.build(bad, ctx), JsonError);
}

TEST(LayerFactory, SkipSpecNestsInnerLayers)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "segmentation";
    spec.dataset = "city";
    spec.layers = Json();
    Json inner_diff;
    inner_diff["kind"] = Json("diffractive");
    inner_diff["count"] = Json(std::size_t{3});
    Json inner;
    inner.push(inner_diff);
    Json skip;
    skip["kind"] = Json("skip");
    skip["inner"] = std::move(inner);
    spec.layers.push(skip);
    Json norm;
    norm["kind"] = Json("layernorm");
    spec.layers.push(norm);

    Rng rng(1);
    DonnModel model = buildSpecModel(spec, 2, &rng);
    EXPECT_EQ(model.depth(), 2u); // skip block + layernorm
    EXPECT_EQ(model.layer(0)->kind(), "skip");
    EXPECT_EQ(model.layer(1)->kind(), "layernorm");
}

TEST(RunExperiment, ClassificationEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_GE(result.final_metrics.primary, 0.0);
    EXPECT_LE(result.final_metrics.primary, 1.0);
    EXPECT_GE(result.final_metrics.top3, result.final_metrics.primary);
    EXPECT_EQ(result.num_classes, 10u);

    // The report must itself be valid, parseable JSON with the spec echo.
    Json report = result.report(spec);
    Json parsed = Json::parse(report.dump());
    EXPECT_EQ(parsed.at("spec").at("name").asString(), "tiny");
    EXPECT_EQ(parsed.at("epochs").asArray().size(), 1u);
    EXPECT_TRUE(parsed.at("final").has("accuracy"));
    EXPECT_NEAR(parsed.at("final").at("chance").asNumber(), 0.1, 1e-12);
}

TEST(RunExperiment, SegmentationEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "segmentation";
    spec.dataset = "city";
    spec.data.train_samples = 10;
    spec.data.test_samples = 4;
    spec.data.image_size = 16;
    spec.layers = Json(); // task-default architecture (skip + layernorm)
    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_GE(result.final_metrics.primary, 0.0);
    EXPECT_LE(result.final_metrics.primary, 1.0);
    Json report = result.report(spec);
    EXPECT_TRUE(report.at("final").has("iou"));
    EXPECT_TRUE(report.at("final").has("mse"));
}

TEST(RunExperiment, RgbEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "rgb";
    spec.dataset = "scenes";
    spec.data.train_samples = 12;
    spec.data.test_samples = 6;
    spec.data.image_size = 16;
    spec.detector.classes = 0; // dataset default (6 scene classes)
    spec.detector.det_size = 1;
    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_EQ(result.num_classes, 6u);
    EXPECT_GE(result.final_metrics.top3, result.final_metrics.primary);
}

TEST(RunExperiment, MismatchedTaskDatasetThrows)
{
    ExperimentSpec spec = tinySpec();
    spec.task = "segmentation";
    spec.dataset = "digits";
    EXPECT_THROW(runExperiment(spec), JsonError);
}

TEST(ExperimentSpec, DetectorModeRoundTripAndValidation)
{
    ExperimentSpec spec = tinySpec();
    spec.detector.mode = "differential";
    ExperimentSpec back = ExperimentSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.detector.mode, "differential");

    Json j = spec.toJson();
    j["detector"]["mode"] = Json("bogus");
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(RunExperiment, DifferentialDetectionEndToEnd)
{
    ExperimentSpec spec = tinySpec();
    spec.detector.mode = "differential";
    spec.detector.det_size = 2; // 20 paired regions on a 16-plane

    Rng rng(spec.model_seed);
    DonnModel model = buildSpecModel(spec, 10, &rng);
    EXPECT_TRUE(model.detector().differential());
    EXPECT_EQ(model.detector().numClasses(), 10u);
    EXPECT_EQ(model.detector().negRegions().size(), 10u);

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.history.size(), 1u);
    EXPECT_GE(result.final_metrics.primary, 0.0);
    EXPECT_LE(result.final_metrics.primary, 1.0);
}

TEST(RunExperiment, ReportRecordsExecutionMode)
{
    ExperimentSpec spec = tinySpec();
    spec.train.workers = 1;
    ExperimentResult result = runExperiment(spec);
    EXPECT_EQ(result.workers_used, 1u);
    EXPECT_EQ(result.workers_requested, 1u);

    Json report = result.report(spec);
    const Json &execution = report.at("execution");
    EXPECT_EQ(execution.at("workers").asInt(), 1);
    EXPECT_EQ(execution.at("workers_requested").asInt(), 1);
    EXPECT_FALSE(execution.has("pipeline"));
    EXPECT_TRUE(execution.has("hw_threads"));
}

TEST(ExperimentSpec, DatasetObjectParsesShardedSource)
{
    Json j = tinySpec().toJson();
    Json ds;
    ds["kind"] = Json("sharded");
    ds["manifest"] = Json(std::string("packed/train/manifest.json"));
    ds["test_manifest"] = Json(std::string("packed/test/manifest.json"));
    ds["prefetch"] = Json(std::size_t{2});
    j["dataset"] = ds;

    ExperimentSpec spec = ExperimentSpec::fromJson(j);
    EXPECT_EQ(spec.source.kind, "sharded");
    EXPECT_EQ(spec.source.manifest, "packed/train/manifest.json");
    EXPECT_EQ(spec.source.test_manifest, "packed/test/manifest.json");
    EXPECT_EQ(spec.source.prefetch, 2u);
    EXPECT_FALSE(spec.source.preload);

    // Sharded specs round-trip through the object form.
    ExperimentSpec back = ExperimentSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.toJson().dump(), spec.toJson().dump());
}

TEST(ExperimentSpec, DatasetObjectValidationErrors)
{
    // kind "sharded" without a manifest.
    Json j = tinySpec().toJson();
    Json ds;
    ds["kind"] = Json("sharded");
    j["dataset"] = ds;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // "name" on a sharded block.
    ds["manifest"] = Json(std::string("m.json"));
    ds["name"] = Json(std::string("digits"));
    j["dataset"] = ds;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Unknown dataset kind.
    Json bad;
    bad["kind"] = Json(std::string("tape"));
    j["dataset"] = bad;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Sharded keys on a synth block.
    Json synth;
    synth["kind"] = Json(std::string("synth"));
    synth["prefetch"] = Json(std::size_t{1});
    j["dataset"] = synth;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);

    // Unknown key inside the block.
    Json unknown;
    unknown["kind"] = Json(std::string("sharded"));
    unknown["manifest"] = Json(std::string("m.json"));
    unknown["surprise"] = Json(true);
    j["dataset"] = unknown;
    EXPECT_THROW(ExperimentSpec::fromJson(j), JsonError);
}

TEST(ExperimentSpec, DatasetObjectSynthNameStillWorks)
{
    Json j = tinySpec().toJson();
    Json ds;
    ds["kind"] = Json(std::string("synth"));
    ds["name"] = Json(std::string("fashion"));
    j["dataset"] = ds;
    ExperimentSpec spec = ExperimentSpec::fromJson(j);
    EXPECT_EQ(spec.source.kind, "synth");
    EXPECT_EQ(spec.dataset, "fashion");
    // Synth specs keep emitting the historical string form.
    EXPECT_EQ(spec.toJson().at("dataset").asString(), "fashion");
}

TEST(RunExperiment, ShardedDatasetEndToEndRecordsSource)
{
    char tmpl[] = "/tmp/lightridge_api_XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string base = dir;

    ClassDataset train = makeSynthDigits(24, 7);
    ClassDataset test = makeSynthDigits(8, 8);
    PackOptions options;
    options.shard_samples = 8;
    writeShards(train, base + "/train", options);
    writeShards(test, base + "/test");

    ExperimentSpec spec = tinySpec();
    spec.source.kind = "sharded";
    spec.source.manifest = base + "/train/manifest.json";
    spec.source.test_manifest = base + "/test/manifest.json";
    spec.source.prefetch = 1;
    spec.data.train_samples = 0; // unused by sharded sources

    ExperimentResult streamed = runExperiment(spec);
    EXPECT_EQ(streamed.data_source, "sharded");
    EXPECT_EQ(streamed.data_shards, 3u);
    EXPECT_EQ(streamed.data_prefetch, 1u);
    EXPECT_GT(streamed.data_bytes_read, 0u);
    EXPECT_EQ(streamed.num_classes, 10u);
    ASSERT_EQ(streamed.history.size(), 1u);

    // Preload mode keeps the shard layout: bitwise-identical training.
    spec.source.preload = true;
    ExperimentResult preloaded = runExperiment(spec);
    EXPECT_EQ(preloaded.data_source, "memory");
    EXPECT_EQ(preloaded.data_shards, 3u);
    EXPECT_EQ(preloaded.data_bytes_read, 0u);
    ASSERT_EQ(preloaded.history.size(), 1u);
    EXPECT_EQ(preloaded.history[0].train_loss,
              streamed.history[0].train_loss);
    EXPECT_EQ(preloaded.final_metrics.primary,
              streamed.final_metrics.primary);

    Json report = streamed.report(spec);
    const Json &execution = report.at("execution");
    EXPECT_EQ(execution.at("data_source").asString(), "sharded");
    EXPECT_EQ(execution.at("data_shards").asInt(), 3);
    EXPECT_EQ(execution.at("data_prefetch").asInt(), 1);
    EXPECT_TRUE(execution.has("data_bytes_read"));

    std::filesystem::remove_all(base);
}

TEST(RunExperiment, MissingManifestExitsWithDataError)
{
    ExperimentSpec spec = tinySpec();
    spec.source.kind = "sharded";
    spec.source.manifest = "/nonexistent/manifest.json";
    EXPECT_THROW(runExperiment(spec), DataError);
}

TEST(RunExperiment, SaveModelWritesServableCheckpoint)
{
    ExperimentSpec spec = tinySpec();
    const std::string path = "api_saved_model_test.json";
    ExperimentResult result = runExperiment(spec, nullptr, path);
    (void)result;
    DonnModel loaded = DonnModel::load(path);
    EXPECT_EQ(loaded.detector().numClasses(), 10u);
    Json raw = Json::load(path);
    EXPECT_EQ(raw.at("format").asString(), kCheckpointMagic);
    std::remove(path.c_str());
}

} // namespace
} // namespace lightridge
