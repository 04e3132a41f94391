/**
 * @file
 * Out-of-core streaming dataset subsystem: bitwise shard round trips,
 * streamed-vs-preloaded training parity across worker counts, the
 * deterministic two-level shuffle, strict manifest/shard validation
 * errors naming the offending shard, the mid-epoch dev-eval cadence
 * (ragged final batch included) at every worker count, and — in
 * LIGHTRIDGE_ALLOC_STATS builds — zero-Field-allocation steady-state
 * streamed train steps.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "data/shard.hpp"
#include "data/stream.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "optics/diffraction.hpp"

namespace lightridge {
namespace {

/** Self-cleaning scratch directory for packed datasets. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/lightridge_data_XXXXXX";
        char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made != nullptr ? made : "/tmp";
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string sub(const std::string &name) const
    {
        return path + "/" + name;
    }
};

SystemSpec
spec16()
{
    SystemSpec spec;
    spec.size = 16;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{16, 36e-6}, 532e-9);
    return spec;
}

DonnModel
classModel(uint64_t seed)
{
    Rng rng(seed);
    return ModelBuilder(spec16(), Laser{})
        .diffractiveLayers(2, 1.0, &rng)
        .detectorGrid(10, 1)
        .build();
}

/** Train a classification source and return the end-of-epoch losses. */
std::vector<Real>
lossHistory(ClassSource &source, const ClassDataset *test, TrainConfig cfg)
{
    DonnModel model = classModel(11);
    ClassificationTask task(model, source, test);
    Session session(task, cfg);
    std::vector<Real> losses;
    for (const EpochStats &stats : session.fit())
        if (!stats.mid_epoch)
            losses.push_back(stats.train_loss);
    return losses;
}

TrainConfig
smallConfig(std::size_t workers)
{
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 6;
    cfg.seed = 3;
    cfg.workers = workers;
    cfg.verbose = false;
    return cfg;
}

/** Element-exact RealMap comparison (the bitwise round-trip check). */
bool
bitwiseEqual(const RealMap &a, const RealMap &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

/** Expect `fn` to throw DataError whose message names `needle`. */
template <typename Fn>
void
expectDataError(Fn fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected DataError mentioning \"" << needle << "\"";
    } catch (const DataError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "DataError message \"" << e.what()
            << "\" does not name \"" << needle << "\"";
    }
}

/** Overwrite bytes at `offset` of a file in place. */
void
patchFile(const std::string &path, std::size_t offset, const void *bytes,
          std::size_t count)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char *>(bytes),
            static_cast<std::streamsize>(count));
    ASSERT_TRUE(f.good()) << path;
}

// --------------------------------------------------------------------------
// Shard format round trips
// --------------------------------------------------------------------------

TEST(ShardFormat, ClassRoundTripIsBitwise)
{
    TempDir dir;
    ClassDataset data = makeSynthDigits(25, 7);
    PackOptions options;
    options.shard_samples = 8; // 8+8+8+1: uneven tail shard
    DatasetManifest manifest = writeShards(data, dir.sub("d"), options);
    EXPECT_EQ(manifest.samples, 25u);
    EXPECT_EQ(manifest.shards.size(), 4u);
    EXPECT_EQ(manifest.shardSizes(),
              (std::vector<std::size_t>{8, 8, 8, 1}));

    DatasetManifest loaded = DatasetManifest::load(
        dir.sub("d") + "/manifest.json");
    EXPECT_EQ(loaded.num_classes, data.num_classes);
    ClassDataset back = materializeClassDataset(loaded);
    ASSERT_EQ(back.size(), data.size());
    EXPECT_EQ(back.labels, data.labels);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_TRUE(bitwiseEqual(back.images[i], data.images[i]))
            << "sample " << i << " must round-trip bitwise";
}

TEST(ShardFormat, SegRoundTripIsBitwise)
{
    TempDir dir;
    SegDataset data = makeSynthCity(10, 5);
    PackOptions options;
    options.shard_samples = 4;
    writeShards(data, dir.sub("d"), options);
    SegDataset back = materializeSegDataset(
        DatasetManifest::load(dir.sub("d") + "/manifest.json"));
    ASSERT_EQ(back.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(back.images[i], data.images[i]));
        EXPECT_TRUE(bitwiseEqual(back.masks[i], data.masks[i]));
    }
}

TEST(ShardFormat, RgbRoundTripIsBitwise)
{
    TempDir dir;
    RgbDataset data = makeSynthScenes(9, 3);
    PackOptions options;
    options.shard_samples = 4;
    writeShards(data, dir.sub("d"), options);
    RgbDataset back = materializeRgbDataset(
        DatasetManifest::load(dir.sub("d") + "/manifest.json"));
    ASSERT_EQ(back.size(), data.size());
    EXPECT_EQ(back.labels, data.labels);
    EXPECT_EQ(back.num_classes, data.num_classes);
    for (std::size_t i = 0; i < data.size(); ++i)
        for (int c = 0; c < 3; ++c)
            EXPECT_TRUE(bitwiseEqual(back.images[i][c], data.images[i][c]));
}

TEST(ShardFormat, DecodeShardIntoReusesStorage)
{
    TempDir dir;
    ClassDataset data = makeSynthDigits(12, 2);
    PackOptions options;
    options.shard_samples = 6;
    DatasetManifest manifest = writeShards(data, dir.sub("d"), options);

    ShardBuffer buffer;
    decodeShardInto(manifest, 1, buffer);
    ASSERT_EQ(buffer.images.size(), 6u);
    EXPECT_EQ(buffer.labels[0], data.labels[6]);
    EXPECT_TRUE(bitwiseEqual(buffer.images[2], data.images[8]));

    // A second decode into the warm buffer lands the other shard's data.
    decodeShardInto(manifest, 0, buffer);
    EXPECT_EQ(buffer.labels[0], data.labels[0]);
    EXPECT_TRUE(bitwiseEqual(buffer.images[5], data.images[5]));
}

// --------------------------------------------------------------------------
// Deterministic two-level shuffle
// --------------------------------------------------------------------------

TEST(TwoLevelShuffle, SingleShardMatchesFlatShuffle)
{
    for (uint64_t seed : {1u, 7u, 42u}) {
        Rng flat_rng(seed);
        std::vector<std::size_t> flat(20);
        std::iota(flat.begin(), flat.end(), std::size_t{0});
        std::shuffle(flat.begin(), flat.end(), flat_rng.engine());

        Rng rng(seed);
        EXPECT_EQ(twoLevelEpochOrder({20}, true, &rng), flat)
            << "single-shard order must equal the historical flat shuffle "
               "(seed " << seed << ")";
    }
}

TEST(TwoLevelShuffle, DeterministicAndShardMajor)
{
    const std::vector<std::size_t> sizes{8, 8, 4};
    Rng rng_a(9), rng_b(9), rng_c(10);
    std::vector<std::size_t> a = twoLevelEpochOrder(sizes, true, &rng_a);
    std::vector<std::size_t> b = twoLevelEpochOrder(sizes, true, &rng_b);
    std::vector<std::size_t> c = twoLevelEpochOrder(sizes, true, &rng_c);
    EXPECT_EQ(a, b) << "same seed must give the same order";
    EXPECT_NE(a, c) << "different seeds must give different orders";

    // A permutation of 0..n-1 ...
    std::vector<std::size_t> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> iota(20);
    std::iota(iota.begin(), iota.end(), std::size_t{0});
    EXPECT_EQ(sorted, iota);

    // ... grouped shard-major: each shard occupies one contiguous span.
    auto shard_of = [](std::size_t i) {
        return i < 8 ? 0 : (i < 16 ? 1 : 2);
    };
    std::vector<int> seen_shards;
    for (std::size_t pos = 0; pos < a.size(); ++pos) {
        int s = shard_of(a[pos]);
        if (seen_shards.empty() || seen_shards.back() != s)
            seen_shards.push_back(s);
    }
    EXPECT_EQ(seen_shards.size(), sizes.size())
        << "each shard's samples must be contiguous in the epoch order";
}

TEST(TwoLevelShuffle, NoShuffleIsIdentity)
{
    Rng rng(4);
    std::vector<std::size_t> order = twoLevelEpochOrder({5, 3}, false, &rng);
    std::vector<std::size_t> iota(8);
    std::iota(iota.begin(), iota.end(), std::size_t{0});
    EXPECT_EQ(order, iota);
}

// --------------------------------------------------------------------------
// Streamed-vs-preloaded training parity
// --------------------------------------------------------------------------

TEST(StreamedTraining, MatchesPreloadedBitwiseAcrossSchedules)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(24, 7);
    PackOptions options;
    options.shard_samples = 8;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    ClassDataset preloaded = materializeClassDataset(manifest);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        InMemoryClassSource memory(preloaded, manifest.shardSizes());
        ShardedClassSource streamed(manifest, 1);
        std::vector<Real> a =
            lossHistory(memory, nullptr, smallConfig(workers));
        std::vector<Real> b =
            lossHistory(streamed, nullptr, smallConfig(workers));
        EXPECT_EQ(a, b) << "streamed and preloaded training must be "
                           "bitwise identical (workers="
                        << workers << ")";
    }
}

TEST(StreamedTraining, SingleShardMatchesLegacyInMemoryTraining)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(18, 5);
    DatasetManifest manifest = writeShards(raw, dir.sub("train"));
    ASSERT_EQ(manifest.shards.size(), 1u);

    // Default flat layout (the engine's historical shuffle) ...
    InMemoryClassSource flat(raw);
    std::vector<Real> legacy =
        lossHistory(flat, nullptr, smallConfig(1));
    // ... equals the streamed single-shard run: shuffling a one-element
    // shard list draws nothing, so the rng stream is identical.
    ShardedClassSource streamed(manifest, 1);
    std::vector<Real> stream =
        lossHistory(streamed, nullptr, smallConfig(1));
    EXPECT_EQ(legacy, stream);
}

TEST(StreamedTraining, PrefetchDepthDoesNotChangeNumbers)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(24, 9);
    PackOptions options;
    options.shard_samples = 6;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    std::vector<std::vector<Real>> runs;
    for (std::size_t prefetch : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}}) {
        ShardedClassSource source(manifest, prefetch);
        runs.push_back(lossHistory(source, nullptr, smallConfig(2)));
        EXPECT_EQ(source.prefetchDepth(), prefetch);
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[1], runs[2]);
}

TEST(StreamedTraining, BytesReadCountsDecodedPayload)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(16, 3);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);
    std::uint64_t payload = 0;
    for (const ShardInfo &shard : manifest.shards)
        payload += shard.bytes;

    ShardedClassSource source(manifest, 1);
    EXPECT_EQ(source.bytesRead(), 0u);
    std::vector<Real> losses =
        lossHistory(source, nullptr, smallConfig(1));
    ASSERT_FALSE(losses.empty());
    // Every shard decodes at least once; the slot cache may save some
    // re-decodes across epochs, so the exact count is schedule-dependent.
    EXPECT_GE(source.bytesRead(), payload);
    EXPECT_EQ(source.bytesRead() % manifest.shards[0].bytes, 0u);
}

TEST(StreamedTraining, StageIndicesServesRandomAccess)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(20, 6);
    PackOptions options;
    options.shard_samples = 8;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    // The calibration-probe path: random access outside any epoch.
    ShardedClassSource source(manifest, 0);
    source.stageIndices(4, 12); // spans shards 0 and 1
    for (std::size_t i = 4; i < 12; ++i) {
        EXPECT_EQ(source.label(i), raw.labels[i]);
        EXPECT_TRUE(bitwiseEqual(source.image(i), raw.images[i]));
    }
    EXPECT_EQ(source.numClasses(), raw.num_classes);
}

// --------------------------------------------------------------------------
// Strict validation error paths
// --------------------------------------------------------------------------

TEST(ShardValidation, MissingShardNamesTheFile)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(12, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    std::filesystem::remove(manifest.shardPath(1));
    expectDataError([&] { verifyShardHeaders(manifest); },
                    "shard_00001.bin");
    expectDataError([&] { ShardedClassSource source(manifest, 1); },
                    "shard_00001.bin");
}

TEST(ShardValidation, ChecksumMismatchNamesTheShard)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(12, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    // Flip one payload byte past the 56-byte header: the header-only scan
    // stays happy, the checksummed decode must fail.
    const unsigned char garbage = 0xa5;
    patchFile(manifest.shardPath(2), 56 + 11, &garbage, 1);
    verifyShardHeaders(manifest);
    expectDataError([&] { validateManifest(manifest); }, "shard_00002.bin");
    expectDataError([&] { validateManifest(manifest); }, "checksum");
    ShardBuffer buffer;
    expectDataError([&] { decodeShardInto(manifest, 2, buffer); },
                    "shard_00002.bin");
}

TEST(ShardValidation, TruncatedShardNamesTheShard)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);
    std::filesystem::resize_file(manifest.shardPath(0), 56 + 40);
    expectDataError([&] { validateManifest(manifest); }, "shard_00000.bin");
}

TEST(ShardValidation, FutureFormatVersionIsRejected)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    DatasetManifest manifest = writeShards(raw, dir.sub("d"));
    // The version word sits right after the 8-byte magic.
    const std::uint32_t future = kShardVersion + 7;
    patchFile(manifest.shardPath(0), 8, &future, sizeof(future));
    expectDataError([&] { verifyShardHeaders(manifest); },
                    "shard_00000.bin");
    expectDataError([&] { verifyShardHeaders(manifest); }, "version");
}

TEST(ShardValidation, StreamPoisonsOnMidEpochCorruption)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(16, 4);
    PackOptions options;
    options.shard_samples = 4;
    DatasetManifest manifest = writeShards(raw, dir.sub("d"), options);

    // Headers verify at construction; corrupt a payload afterwards so the
    // failure surfaces from the decode jobs during staging.
    ShardedClassSource source(manifest, 1);
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        const unsigned char garbage = 0x5a;
        patchFile(manifest.shardPath(s), 56 + 3, &garbage, 1);
    }
    std::vector<std::size_t> order(raw.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    source.beginEpoch(&order);
    expectDataError([&] { source.stageRange(0, 8); }, "checksum");
    source.endEpoch();
}

TEST(ShardValidation, ManifestRejectsUnknownKeysAndWrongFormat)
{
    TempDir dir;
    ClassDataset raw = makeSynthDigits(8, 4);
    DatasetManifest manifest = writeShards(raw, dir.sub("d"));
    const std::string path = dir.sub("d") + "/manifest.json";

    Json j = manifest.toJson();
    j["surprise"] = Json(true);
    ASSERT_TRUE(j.save(path));
    expectDataError([&] { DatasetManifest::load(path); }, "surprise");

    Json wrong = manifest.toJson();
    wrong["format"] = Json(std::string("not-a-dataset"));
    ASSERT_TRUE(wrong.save(path));
    expectDataError([&] { DatasetManifest::load(path); },
                    "lightridge-dataset");
}

// --------------------------------------------------------------------------
// Mid-epoch dev evaluation
// --------------------------------------------------------------------------

TEST(DevEval, OffByDefaultIsBitwiseNoOp)
{
    ClassDataset train = makeSynthDigits(24, 7);
    ClassDataset test = makeSynthDigits(8, 8);

    InMemoryClassSource source_a(train);
    TrainConfig base = smallConfig(1);
    std::vector<Real> plain = lossHistory(source_a, &test, base);

    InMemoryClassSource source_b(train);
    TrainConfig cadence = base;
    cadence.dev_eval_every_batches = 2;
    std::vector<Real> with_eval = lossHistory(source_b, &test, cadence);
    EXPECT_EQ(plain, with_eval)
        << "mid-epoch dev eval must not change the training numbers";
}

TEST(DevEval, SnapshotsInterleaveWithCadence)
{
    ClassDataset train = makeSynthDigits(24, 7);
    ClassDataset test = makeSynthDigits(8, 8);
    InMemoryClassSource source(train);

    DonnModel model = classModel(11);
    ClassificationTask task(model, source, &test);
    TrainConfig cfg = smallConfig(1);
    cfg.dev_eval_every_batches = 2;
    Session session(task, cfg);

    std::size_t callback_mid = 0;
    session.addCallback([&](const EpochStats &stats, Session &) {
        callback_mid += stats.mid_epoch ? 1 : 0;
        return true;
    });
    std::vector<EpochStats> history = session.fit();

    // 24 samples / batch 6 = 4 batches/epoch; cadence 2 fires after
    // batches 2 and 4 -> 2 snapshots per epoch, 2 epochs.
    std::size_t mid = 0, full = 0;
    int last_epoch = -1;
    for (const EpochStats &stats : history) {
        if (stats.mid_epoch) {
            ++mid;
            EXPECT_TRUE(stats.batch == 2 || stats.batch == 4);
            EXPECT_GE(stats.epoch, last_epoch)
                << "snapshots must precede their epoch's final entry";
        } else {
            ++full;
            last_epoch = stats.epoch;
        }
    }
    EXPECT_EQ(mid, 4u);
    EXPECT_EQ(full, 2u);
    EXPECT_EQ(callback_mid, 4u)
        << "mid-epoch snapshots must flow through the callback machinery";
}

TEST(DevEval, RaggedFinalBatchSnapshotsAtEveryWorkerCount)
{
    // 26 samples / batch 6 = 4 full batches and a ragged fifth of 2, so
    // a cadence of 5 fires only after the ragged batch. Both epoch loops
    // must take that snapshot, and it must not change the numbers.
    ClassDataset train = makeSynthDigits(26, 7);
    ClassDataset test = makeSynthDigits(8, 8);
    using Row = std::pair<bool, std::size_t>; // (mid_epoch, batch)
    const std::vector<Row> expected = {{true, 5}, {false, 0}};

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers);
        TrainConfig cfg = smallConfig(workers);
        cfg.epochs = 1;
        InMemoryClassSource plain_source(train);
        std::vector<Real> plain = lossHistory(plain_source, &test, cfg);

        cfg.dev_eval_every_batches = 5;
        DonnModel model = classModel(11);
        InMemoryClassSource source(train);
        ClassificationTask task(model, source, &test);
        std::vector<Row> rows;
        std::vector<Real> losses;
        for (const EpochStats &stats : Session(task, cfg).fit()) {
            rows.emplace_back(stats.mid_epoch, stats.batch);
            if (!stats.mid_epoch)
                losses.push_back(stats.train_loss);
        }
        EXPECT_EQ(rows, expected);
        EXPECT_EQ(losses, plain);
    }
}

// --------------------------------------------------------------------------
// Zero-allocation steady state (LIGHTRIDGE_ALLOC_STATS builds only)
// --------------------------------------------------------------------------

TEST(AllocStats, SteadyStateStreamedStepAllocatesNoFields)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    TempDir dir;
    ClassDataset raw = makeSynthDigits(18, 3);
    PackOptions options;
    options.shard_samples = 6;
    DatasetManifest manifest = writeShards(raw, dir.sub("train"), options);

    DonnModel model = classModel(11);
    ShardedClassSource source(manifest, 1);
    ClassificationTask task(model, source); // no test set: pure train loop
    Session session(task, smallConfig(1));
    session.calibrate();

    // Warm epoch: sizes the slot ring, layer caches, and workspaces.
    session.trainEpoch();

    resetFieldAllocCount();
    session.trainEpoch();
    EXPECT_EQ(fieldAllocCount(), 0u)
        << "steady-state streamed train steps (decode included) must not "
           "allocate Fields";
}

} // namespace
} // namespace lightridge
