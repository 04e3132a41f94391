/**
 * @file
 * Session engine behaviours across task kinds: bit-for-bit parity of the
 * workers=1 serial path against the legacy trainer recipes (reimplemented
 * here as explicit reference loops), data-parallel replica training for
 * segmentation/RGB, the synchronous replica schedule (classification and
 * RGB) pinned against a reference reimplementation, top-k reporting,
 * per-epoch callbacks, and the per-batch divergence guard in both epoch
 * loops.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "core/session.hpp"
#include "data/synth_city.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_scenes.hpp"
#include "optics/diffraction.hpp"

namespace lightridge {
namespace {

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

DonnModel
segModel(uint64_t seed)
{
    Rng rng(seed);
    DonnModel model(spec16(), Laser{});
    for (int l = 0; l < 2; ++l)
        model.addLayer(std::make_unique<DiffractiveLayer>(
            model.hopPropagator(), 1.0, &rng));
    model.setDetector(DetectorPlane(DetectorPlane::gridLayout(16, 2, 2)));
    return model;
}

MultiChannelDonn
rgbModel(uint64_t seed, std::size_t classes)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch)
        channels.push_back(std::make_unique<DonnModel>(
            ModelBuilder(spec16(), Laser{})
                .diffractiveLayers(1, 1.0, &rng)
                .detectorGrid(classes, 1)
                .build()));
    return MultiChannelDonn(std::move(channels));
}

/** Shuffled index order, identical to the engine's per-epoch recipe. */
std::vector<std::size_t>
refOrder(std::size_t n, Rng *rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng->engine());
    return order;
}

/**
 * Reference reimplementation of the legacy serial segmentation trainer:
 * calibration (probe 8), shuffled per-sample forward/backward with
 * batch-accumulated gradients and an Adam step per batch.
 */
std::vector<Real>
legacySegLosses(DonnModel &model, const SegDataset &train,
                const TrainConfig &cfg)
{
    Adam optimizer(cfg.lr);
    optimizer.attach(model.params());
    Rng rng(cfg.seed);

    Real intensity_scale = 1.0;
    Real mask_mean = 0.25;
    std::size_t probe = std::min<std::size_t>(8, train.size());
    Real mean_intensity = 0, mean_mask = 0;
    for (std::size_t i = 0; i < probe; ++i) {
        Field u = model.forwardField(model.encode(train.images[i]), true);
        mean_intensity += u.intensity().mean();
        mean_mask += train.masks[i].mean();
    }
    mean_intensity /= static_cast<Real>(probe);
    mean_mask /= static_cast<Real>(probe);
    if (mean_mask > 0)
        mask_mean = mean_mask;
    if (mean_intensity > 0)
        intensity_scale = mask_mean / mean_intensity;

    const Grid grid = model.spec().grid();
    std::vector<Real> losses;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::vector<std::size_t> order = refOrder(train.size(), &rng);
        Real loss_sum = 0;
        std::size_t in_batch = 0;
        model.zeroGrad();
        for (std::size_t idx : order) {
            Field u = model.forwardField(model.encode(train.images[idx]),
                                         true);
            RealMap target = (train.masks[idx].rows() == grid.n)
                                 ? train.masks[idx]
                                 : resizeBilinear(train.masks[idx], grid.n,
                                                  grid.n);
            FieldLossResult loss =
                intensityMseLoss(u, target, intensity_scale);
            loss_sum += loss.value;
            model.backwardField(loss.grad);
            if (++in_batch == cfg.batch) {
                optimizer.step();
                model.zeroGrad();
                in_batch = 0;
            }
        }
        if (in_batch > 0) {
            optimizer.step();
            model.zeroGrad();
        }
        losses.push_back(loss_sum / train.size());
    }
    return losses;
}

/**
 * Reference reimplementation of the legacy serial RGB trainer:
 * calibration (probe 8, shared amp factor), shuffled per-sample
 * forward/backward, Adam step per batch.
 */
std::vector<Real>
legacyRgbLosses(MultiChannelDonn &model, const RgbDataset &train,
                const TrainConfig &cfg)
{
    Adam optimizer(cfg.lr);
    optimizer.attach(model.params());
    Rng rng(cfg.seed);

    std::size_t probe = std::min<std::size_t>(8, train.size());
    Real mean_top = 0;
    for (std::size_t ch = 0; ch < model.numChannels(); ++ch)
        model.channel(ch).detector().setAmpFactor(1.0);
    for (std::size_t i = 0; i < probe; ++i) {
        std::vector<Real> logits =
            model.forwardLogits(model.encode(train.images[i]), false);
        mean_top += *std::max_element(logits.begin(), logits.end());
    }
    mean_top /= static_cast<Real>(probe);
    if (mean_top > 0)
        for (std::size_t ch = 0; ch < model.numChannels(); ++ch)
            model.channel(ch).detector().setAmpFactor(cfg.calib_target /
                                                      mean_top);

    std::vector<Real> losses;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::vector<std::size_t> order = refOrder(train.size(), &rng);
        Real loss_sum = 0;
        std::size_t in_batch = 0;
        model.zeroGrad();
        for (std::size_t idx : order) {
            std::vector<Real> logits =
                model.forwardLogits(model.encode(train.images[idx]), true);
            LossResult loss =
                classificationLoss(cfg.loss, logits, train.labels[idx]);
            loss_sum += loss.value;
            model.backwardFromLogits(loss.dlogits);
            if (++in_batch == cfg.batch) {
                optimizer.step();
                model.zeroGrad();
                in_batch = 0;
            }
        }
        if (in_batch > 0) {
            optimizer.step();
            model.zeroGrad();
        }
        losses.push_back(loss_sum / train.size());
    }
    return losses;
}

TEST(SessionParity, SegmentationSerialMatchesLegacyBitForBit)
{
    CityConfig ccfg;
    ccfg.image_size = 16;
    SegDataset train = makeSynthCity(10, 1, ccfg);

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 4;
    cfg.lr = 0.08;
    cfg.seed = 11;
    cfg.workers = 1;

    DonnModel ref_model = segModel(5);
    std::vector<Real> ref = legacySegLosses(ref_model, train, cfg);

    DonnModel model = segModel(5);
    SegmentationTask task(model, train);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    ASSERT_EQ(history.size(), ref.size());
    for (std::size_t e = 0; e < ref.size(); ++e)
        EXPECT_EQ(history[e].train_loss, ref[e]) << "epoch " << e;
}

TEST(SessionParity, RgbSerialMatchesLegacyBitForBit)
{
    SceneConfig scfg;
    scfg.image_size = 16;
    RgbDataset train = makeSynthScenes(12, 1, scfg);

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 4;
    cfg.lr = 0.03;
    cfg.seed = 13;
    cfg.workers = 1;

    MultiChannelDonn ref_model = rgbModel(5, train.num_classes);
    std::vector<Real> ref = legacyRgbLosses(ref_model, train, cfg);

    MultiChannelDonn model = rgbModel(5, train.num_classes);
    RgbTask task(model, train);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    ASSERT_EQ(history.size(), ref.size());
    for (std::size_t e = 0; e < ref.size(); ++e)
        EXPECT_EQ(history[e].train_loss, ref[e]) << "epoch " << e;
}

TEST(SessionParallel, SegmentationWorkersTrainAsWellAsSerial)
{
    CityConfig ccfg;
    ccfg.image_size = 16;
    SegDataset train = makeSynthCity(16, 1, ccfg);

    auto run = [&](std::size_t workers) {
        DonnModel model = segModel(7);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch = 8;
        cfg.lr = 0.08;
        cfg.workers = workers;
        SegmentationTask task(model, train);
        return Session(task, cfg).fit();
    };

    auto serial = run(1);
    auto parallel = run(3);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_LE(parallel.back().train_loss, parallel.front().train_loss);
    for (const EpochStats &stats : parallel)
        EXPECT_TRUE(std::isfinite(stats.train_loss));
    EXPECT_NEAR(parallel.back().train_loss, serial.back().train_loss,
                0.5 * std::abs(serial.back().train_loss) + 0.05);
}

TEST(SessionParallel, RgbWorkersTrainAsWellAsSerial)
{
    SceneConfig scfg;
    scfg.image_size = 16;
    RgbDataset train = makeSynthScenes(18, 1, scfg);

    auto run = [&](std::size_t workers) {
        MultiChannelDonn model = rgbModel(7, train.num_classes);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch = 6;
        cfg.lr = 0.03;
        cfg.workers = workers;
        RgbTask task(model, train);
        return Session(task, cfg).fit();
    };

    auto serial = run(1);
    auto parallel = run(3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const EpochStats &stats : parallel)
        EXPECT_TRUE(std::isfinite(stats.train_loss));
    EXPECT_NEAR(parallel.back().train_loss, serial.back().train_loss,
                0.5 * std::abs(serial.back().train_loss) + 0.05);
}

TEST(SessionMetrics, TopKReportedAndMonotone)
{
    ClassDataset train = makeSynthDigits(40, 1);
    ClassDataset test = makeSynthDigits(20, 2);
    DonnModel model = classModel(3);

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.workers = 1;
    ClassificationTask task(model, train, &test);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    for (const EpochStats &stats : history) {
        EXPECT_GE(stats.test_top3, stats.test_acc);
        EXPECT_LE(stats.test_top3, 1.0);
    }

    Real top1 = evaluateTopK(model, test, 1);
    Real top3 = evaluateTopK(model, test, 3);
    EXPECT_EQ(top1, evaluateAccuracy(model, test));
    EXPECT_GE(top3, top1);
    EXPECT_EQ(evaluateTopK(model, test, 10), 1.0); // k = all classes
}

TEST(SessionCallbacks, EarlyStopTruncatesHistory)
{
    ClassDataset train = makeSynthDigits(20, 1);
    DonnModel model = classModel(3);

    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.workers = 1;
    ClassificationTask task(model, train);
    Session session(task, cfg);
    session.addCallback(
        [](const EpochStats &stats, Session &) { return stats.epoch < 1; });
    std::vector<EpochStats> history = session.fit();
    EXPECT_EQ(history.size(), 2u); // stopped after epoch 1
}

TEST(SessionCallbacks, CheckpointCallbackSavesModel)
{
    ClassDataset train = makeSynthDigits(20, 1);
    ClassDataset test = makeSynthDigits(10, 2);
    DonnModel model = classModel(3);

    const std::string path = "/tmp/lr_session_checkpoint.json";
    std::remove(path.c_str());

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.workers = 1;
    ClassificationTask task(model, train, &test);
    Session session(task, cfg);
    session.addCallback(checkpointBestCallback(path));
    session.fit();

    DonnModel restored = DonnModel::load(path);
    EXPECT_EQ(restored.depth(), model.depth());
    std::remove(path.c_str());
}

TEST(SessionCallbacks, EarlyStopCallbackStopsOnPlateau)
{
    ClassDataset train = makeSynthDigits(20, 1);
    DonnModel model = classModel(3);

    TrainConfig cfg;
    cfg.epochs = 40;
    cfg.lr = 0.0;        // zero step size: loss plateaus immediately
    cfg.shuffle = false; // fixed accumulation order => exactly equal loss
    cfg.workers = 1;
    ClassificationTask task(model, train);
    Session session(task, cfg);
    session.addCallback(earlyStopCallback(2));
    std::vector<EpochStats> history = session.fit();
    EXPECT_LT(history.size(), 40u);
}

/**
 * Reference reimplementation of the synchronous data-parallel schedule:
 * per epoch, fresh replicas clone the primary;
 * per batch, replica r trains samples r, r+active, ... sequentially;
 * replica gradients merge into the primary in fixed replica order; one
 * Adam step; parameters redistributed. Noise-free layers only, so clone
 * seeds do not matter. Drives the by-value model API of either a
 * single-stack DonnModel or a MultiChannelDonn.
 */
template <class Model, class Dataset>
std::vector<Real>
referenceSyncParallelLosses(Model &model, const Dataset &train,
                            const TrainConfig &cfg, std::size_t workers)
{
    Adam optimizer(cfg.lr);
    optimizer.attach(model.params());
    Rng rng(cfg.seed);
    std::vector<ParamView> main_params = model.params();

    std::vector<Real> losses;
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        std::vector<std::size_t> order = refOrder(train.size(), &rng);
        std::vector<Model> replicas;
        for (std::size_t r = 0; r < workers; ++r)
            replicas.push_back(model.clone());
        Real loss_sum = 0;
        model.zeroGrad();
        for (std::size_t start = 0; start < order.size();
             start += cfg.batch) {
            std::size_t batch = std::min(cfg.batch, order.size() - start);
            std::size_t active = std::min(workers, batch);
            std::vector<Real> part(active, 0);
            for (std::size_t r = 0; r < active; ++r) {
                for (std::size_t j = r; j < batch; j += active) {
                    std::size_t idx = order[start + j];
                    std::vector<Real> logits = replicas[r].forwardLogits(
                        replicas[r].encode(train.images[idx]), true);
                    LossResult loss = classificationLoss(
                        cfg.loss, logits, train.labels[idx]);
                    part[r] += loss.value;
                    replicas[r].backwardFromLogits(loss.dlogits);
                }
            }
            for (std::size_t r = 0; r < active; ++r) {
                loss_sum += part[r];
                std::vector<ParamView> rep_params = replicas[r].params();
                for (std::size_t p = 0; p < main_params.size(); ++p) {
                    const std::vector<Real> &src = *rep_params[p].grad;
                    std::vector<Real> &dst = *main_params[p].grad;
                    for (std::size_t i = 0; i < dst.size(); ++i)
                        dst[i] += src[i];
                }
                replicas[r].zeroGrad();
            }
            optimizer.step();
            model.zeroGrad();
            for (std::size_t r = 0; r < workers; ++r) {
                std::vector<ParamView> rep_params = replicas[r].params();
                for (std::size_t p = 0; p < main_params.size(); ++p)
                    *rep_params[p].value = *main_params[p].value;
            }
        }
        losses.push_back(loss_sum / train.size());
    }
    return losses;
}

TEST(SessionParallel, MatchesSynchronousReferenceBitwise)
{
    // The replica loop must reproduce the synchronous schedule bit for
    // bit, pinned against an independent reimplementation of that
    // schedule (not against itself).
    ClassDataset train = makeSynthDigits(13, 1); // ragged final batch

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 5;
    cfg.lr = 0.05;
    cfg.seed = 17;
    cfg.workers = 2;
    cfg.calibrate = false; // keep the reference loop minimal

    DonnModel ref_model = classModel(9);
    std::vector<Real> reference =
        referenceSyncParallelLosses(ref_model, train, cfg, cfg.workers);

    DonnModel model = classModel(9);
    ClassificationTask task(model, train);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    ASSERT_EQ(history.size(), reference.size());
    for (std::size_t e = 0; e < reference.size(); ++e)
        EXPECT_EQ(history[e].train_loss, reference[e]) << "epoch " << e;
}

TEST(SessionParallel, RgbMatchesSynchronousReferenceBitwise)
{
    // Same pin for the three-stack RGB model: the shared replica engine
    // must reproduce the synchronous schedule bit for bit.
    SceneConfig scfg;
    scfg.image_size = 16;
    RgbDataset train = makeSynthScenes(13, 1, scfg); // ragged final batch

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 5;
    cfg.lr = 0.03;
    cfg.seed = 19;
    cfg.workers = 2;
    cfg.calibrate = false; // keep the reference loop minimal

    MultiChannelDonn ref_model = rgbModel(9, train.num_classes);
    std::vector<Real> reference =
        referenceSyncParallelLosses(ref_model, train, cfg, cfg.workers);

    MultiChannelDonn model = rgbModel(9, train.num_classes);
    RgbTask task(model, train);
    std::vector<EpochStats> history = Session(task, cfg).fit();

    ASSERT_EQ(history.size(), reference.size());
    for (std::size_t e = 0; e < reference.size(); ++e)
        EXPECT_EQ(history[e].train_loss, reference[e]) << "epoch " << e;
}

TEST(SessionDivergence, NonFiniteInputFailsLoudlyInEveryEpochLoop)
{
    // One NaN pixel in sample 9 poisons its loss and gradients. With the
    // order unshuffled and batch 4, that is batch 2 of epoch 0 in the
    // serial and synchronous-parallel loops alike.
    ClassDataset train = makeSynthDigits(16, 1);
    train.images[9][0] = std::numeric_limits<Real>::quiet_NaN();

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers);
        DonnModel model = classModel(5);
        TrainConfig cfg;
        cfg.epochs = 2;
        cfg.batch = 4;
        cfg.shuffle = false;
        cfg.workers = workers;
        ClassificationTask task(model, train);
        Session session(task, cfg);
        try {
            session.fit();
            ADD_FAILURE() << "expected TrainingDivergedError";
        } catch (const TrainingDivergedError &e) {
            EXPECT_EQ(e.epoch(), 0);
            EXPECT_EQ(e.batch(), 2u);
            EXPECT_NE(std::string(e.what()).find("epoch 0, batch 2"),
                      std::string::npos)
                << e.what();
        }
        // The poisoned batch never reached the optimizer.
        for (const ParamView &param : task.params())
            for (const Real v : *param.value)
                ASSERT_TRUE(std::isfinite(v)) << param.name;
    }
}

TEST(SessionMultiChannel, CloneIsIndependent)
{
    MultiChannelDonn model = rgbModel(1, 6);
    MultiChannelDonn copy = model.clone();
    ASSERT_EQ(copy.numChannels(), model.numChannels());

    // Perturb the copy; the original's parameters stay untouched.
    std::vector<ParamView> params = copy.params();
    ASSERT_FALSE(params.empty());
    (*params[0].value)[0] += 1.0;
    std::vector<ParamView> orig = model.params();
    EXPECT_NE((*params[0].value)[0], (*orig[0].value)[0]);
}

} // namespace
} // namespace lightridge
