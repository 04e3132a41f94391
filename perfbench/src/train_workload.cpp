/**
 * @file
 * Training workloads: the 5-layer classification stack trained with
 * Session::trainEpoch and evaluated with Task::evaluate.
 *
 *  - train-mem64: in-memory digits, 64x64 grid, serial loop (workers=1).
 *  - train-shard96: 96x96 grid (mixed-radix FFT), trained from a manifest
 *    packed during set-up, prefetch=1, two data-parallel replicas.
 *
 * The traced run replays training steps through the same public calls
 * ClassificationTask::sampleStep and Session's serial loop make (encode,
 * per-layer forward, final hop, detector, loss, backward, Adam), with a
 * span around each.
 */
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <unistd.h>

#include "core/loss.hpp"
#include "core/optimizer.hpp"
#include "core/session.hpp"
#include "core/task.hpp"
#include "data/shard.hpp"
#include "data/source.hpp"
#include "data/stream.hpp"
#include "data/synth_digits.hpp"
#include "fft/fft.hpp"
#include "optics/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lr = lightridge;

namespace {

struct TrainShape
{
    std::size_t grid = 64;
    std::size_t depth = 5;
    std::size_t batch = 16;
    std::size_t workers = 1;
    bool sharded = false;
    std::size_t train_samples = 256;
    std::size_t test_samples = 128;
    std::size_t shard_samples = 32; ///< sharded only
    std::size_t prefetch = 1;       ///< sharded only
    double lr = 0.05;
};

TrainShape
shapeFor(const std::string &workload)
{
    TrainShape shape;
    if (workload == "train-shard96") {
        shape.grid = 96;
        shape.workers = 2;
        shape.sharded = true;
        shape.train_samples = 192;
    }
    return shape;
}

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetups = 9;
/** Timed Task::evaluate passes after each training epoch. */
constexpr int kEvalPasses = 3;
/** Batches of each replayed (traced and untraced) training pass. */
constexpr std::size_t kReplayBatches = 6;

/**
 * Forwarding source that times stageRange (the time a batch waits for
 * its shards). Used only by the traced run.
 */
class StageTimingSource : public lr::ClassSource
{
  public:
    explicit StageTimingSource(lr::ClassSource &inner) : inner_(inner) {}

    std::size_t size() const override { return inner_.size(); }
    std::vector<std::size_t> shardSizes() const override
    {
        return inner_.shardSizes();
    }
    const char *sourceKind() const override { return inner_.sourceKind(); }
    std::size_t prefetchDepth() const override
    {
        return inner_.prefetchDepth();
    }
    std::uint64_t bytesRead() const override { return inner_.bytesRead(); }
    void beginEpoch(const std::vector<std::size_t> *order) override
    {
        inner_.beginEpoch(order);
    }
    void stageRange(std::size_t lo, std::size_t hi) override
    {
        const Clock::time_point a = Clock::now();
        inner_.stageRange(lo, hi);
        stage_s_ += secondsBetween(a, Clock::now());
    }
    void stageIndices(std::size_t lo, std::size_t hi) override
    {
        inner_.stageIndices(lo, hi);
    }
    void endEpoch() override { inner_.endEpoch(); }
    const lr::RealMap &image(std::size_t i) const override
    {
        return inner_.image(i);
    }
    int label(std::size_t i) const override { return inner_.label(i); }
    std::size_t numClasses() const override { return inner_.numClasses(); }

    double stageSeconds() const { return stage_s_; }

  private:
    lr::ClassSource &inner_;
    double stage_s_ = 0;
};

/** Everything one set-up builds; members are destroyed in reverse. */
struct TrainState
{
    std::string shard_dir;
    lr::ClassDataset train;
    lr::ClassDataset test;
    std::optional<lr::DatasetManifest> manifest;
    std::unique_ptr<lr::ClassSource> base_source;
    std::unique_ptr<StageTimingSource> timed_source; ///< traced run only
    std::unique_ptr<lr::DonnModel> model;
    std::unique_ptr<lr::ClassificationTask> task;
    std::unique_ptr<lr::Session> session;
    lr::TrainConfig config;
    bool manifest_valid = true;
    double pack_s = 0;
    double calibrate_s = 0;
    lr::TransferFunctionCacheStats tf;

    lr::ClassSource &
    source()
    {
        return timed_source ? *timed_source : *base_source;
    }

    ~TrainState()
    {
        // Close the shard stream before deleting the files it reads.
        session.reset();
        task.reset();
        timed_source.reset();
        base_source.reset();
        std::error_code ec;
        if (!shard_dir.empty())
            std::filesystem::remove_all(shard_dir, ec);
    }
};

/**
 * One full set-up: data synthesis (and packing + validation for the
 * sharded workload), model build through the experiment-spec API,
 * transfer-function and FFT-plan builds, Session construction and the
 * calibration pass. Caches are cleared first so every set-up is cold.
 */
std::unique_ptr<TrainState>
setUp(const TrainShape &shape, const Options &options, int attempt)
{
    lr::clearTransferFunctionCache();
    lr::clearFftPlanCache();
    auto state = std::make_unique<TrainState>();
    state->train =
        lr::makeSynthDigits(shape.train_samples, deriveSeed(options.seed, 1));
    state->test =
        lr::makeSynthDigits(shape.test_samples, deriveSeed(options.seed, 2));

    if (shape.sharded) {
        state->shard_dir = options.out_dir + "/shards-" + options.workload +
                           "-" + std::to_string(::getpid()) + "-" +
                           std::to_string(attempt);
        std::error_code ec;
        std::filesystem::remove_all(state->shard_dir, ec);
        lr::PackOptions pack;
        pack.shard_samples = shape.shard_samples;
        const Clock::time_point a = Clock::now();
        lr::DatasetManifest written =
            lr::writeShards(state->train, state->shard_dir, pack);
        state->pack_s = secondsBetween(a, Clock::now());
        // Train from the manifest as a consumer would: load it back and
        // validate it before the stream opens.
        state->manifest = lr::DatasetManifest::load(state->shard_dir +
                                                    "/manifest.json");
        try {
            lr::validateManifest(*state->manifest);
        } catch (const std::exception &) {
            state->manifest_valid = false;
        }
        state->manifest_valid =
            state->manifest_valid &&
            state->manifest->samples == written.samples &&
            state->manifest->samples == shape.train_samples;
        state->base_source = std::make_unique<lr::ShardedClassSource>(
            *state->manifest, shape.prefetch);
    } else {
        state->base_source =
            std::make_unique<lr::InMemoryClassSource>(state->train);
    }
    if (options.trace)
        state->timed_source =
            std::make_unique<StageTimingSource>(*state->base_source);

    state->model = std::make_unique<lr::DonnModel>(
        buildModel(shape.grid, shape.depth, state->train.num_classes,
                   deriveSeed(options.seed, 3)));

    state->config.batch = shape.batch;
    state->config.lr = shape.lr;
    state->config.seed = deriveSeed(options.seed, 4);
    state->config.workers = shape.workers;
    state->task = std::make_unique<lr::ClassificationTask>(
        *state->model, state->source(), &state->test);
    state->session =
        std::make_unique<lr::Session>(*state->task, state->config);
    const Clock::time_point c = Clock::now();
    state->session->calibrate();
    state->calibrate_s = secondsBetween(c, Clock::now());
    state->tf = lr::transferFunctionCacheStats();
    return state;
}

/**
 * Replay `batches` training steps of one epoch through the public
 * per-layer calls, in the order Session's serial loop and
 * ClassificationTask::sampleStep make them. Span tree:
 *   train.step > data.stage | core.sample | core.adam | core.zero_grad
 *   core.sample > core.encode | core.layer_fwd | optics.final_hop |
 *                 core.detector | core.loss | core.backward
 *   core.backward > core.detector_bwd | optics.final_adjoint |
 *                   core.layer_bwd
 * Returns the number of replayed samples; counts a failed check for
 * every step whose loss is not finite.
 */
std::size_t
replayTraining(TrainState &state, lr::Adam &adam, lr::Rng &order_rng,
               std::size_t batches, Tracer &tracer, Outcome &out)
{
    lr::ClassSource &source = state.source();
    lr::DonnModel &model = *state.model;
    const std::shared_ptr<const lr::Propagator> hop = model.hopPropagator();
    const std::size_t n = model.spec().grid().n;
    const std::size_t depth = model.depth();
    const std::size_t batch = state.config.batch;
    lr::PropagationWorkspace &workspace =
        lr::PropagationWorkspace::threadLocal();

    std::vector<std::size_t> order =
        lr::twoLevelEpochOrder(source.shardSizes(), true, &order_rng);
    const std::size_t end = std::min(order.size(), batches * batch);
    source.beginEpoch(&order);
    model.zeroGrad();
    for (std::size_t lo = 0; lo < end; lo += batch) {
        const std::size_t hi = std::min(lo + batch, end);
        Tracer::Scope step = tracer.span("train.step", lo / batch);
        bool finite = true;
        {
            Tracer::Scope s = tracer.span("data.stage");
            source.stageRange(lo, hi);
        }
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t index = order[i];
            Tracer::Scope sample = tracer.span("core.sample", index);
            lr::WorkspaceField u(workspace, n, n);
            const int label = source.label(index);
            {
                Tracer::Scope s = tracer.span("core.encode", index);
                model.encodeInto(source.image(index), u.get());
            }
            for (std::size_t l = 0; l < depth; ++l) {
                Tracer::Scope s = tracer.span("core.layer_fwd", index);
                model.layer(l)->forwardInPlace(u.get(), true, workspace);
            }
            {
                Tracer::Scope s = tracer.span("optics.final_hop", index);
                hop->forwardInto(u.get(), u.get(), workspace);
            }
            std::vector<lr::Real> logits;
            {
                Tracer::Scope s = tracer.span("core.detector", index);
                logits = model.detector().forward(u.get());
            }
            lr::LossResult loss;
            {
                Tracer::Scope s = tracer.span("core.loss", index);
                loss = lr::classificationLoss(state.config.loss, logits,
                                              label);
            }
            finite = finite && std::isfinite(loss.value);
            Tracer::Scope backward = tracer.span("core.backward", index);
            {
                Tracer::Scope s = tracer.span("core.detector_bwd", index);
                model.detector().backwardInto(loss.dlogits, u.get());
            }
            {
                Tracer::Scope s = tracer.span("optics.final_adjoint", index);
                hop->adjointInto(u.get(), u.get(), workspace);
            }
            for (std::size_t l = depth; l-- > 0;) {
                Tracer::Scope s = tracer.span("core.layer_bwd", index);
                model.layer(l)->backwardInPlace(u.get(), workspace);
            }
        }
        {
            Tracer::Scope s = tracer.span("core.adam");
            adam.step();
        }
        {
            Tracer::Scope s = tracer.span("core.zero_grad");
            model.zeroGrad();
        }
        out.check(finite);
    }
    source.endEpoch();
    return end;
}

/**
 * Replay Task::evaluate serially (same calls: encode, inferField,
 * readout) under spans and check the replayed top-1 hits match the
 * task's own evaluation of the same weights.
 */
void
replayEvaluation(TrainState &state, Tracer &tracer, Outcome &out)
{
    lr::DonnModel &model = *state.model;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < state.test.size(); ++i) {
        Tracer::Scope sample =
            tracer.span("eval.sample", static_cast<std::int64_t>(i));
        lr::Field u;
        {
            Tracer::Scope s = tracer.span("core.encode", i);
            u = model.encode(state.test.images[i]);
        }
        std::vector<lr::Real> logits;
        {
            Tracer::Scope s = tracer.span("core.infer", i);
            logits = model.detector().readout(model.inferField(u));
        }
        const int pred = static_cast<int>(
            std::max_element(logits.begin(), logits.end()) - logits.begin());
        if (pred == state.test.labels[i])
            ++hits;
    }
    const lr::TaskMetrics metrics = state.task->evaluate();
    out.check(static_cast<lr::Real>(hits) / state.test.size() ==
              metrics.primary);
}

/** Data-layer decode cost: median decodeShardInto per shard (ms). */
double
measureDecodeMs(const lr::DatasetManifest &manifest, int rounds)
{
    std::vector<double> ms;
    lr::ShardBuffer buffer;
    for (int r = 0; r <= rounds; ++r)
        for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
            const Clock::time_point a = Clock::now();
            lr::decodeShardInto(manifest, s, buffer);
            if (r > 0) // first round warms the page cache and buffers
                ms.push_back(secondsBetween(a, Clock::now()) * 1e3);
        }
    return median(ms);
}

struct EpochLoop
{
    std::vector<double> train_sps;   ///< per epoch, warm-up dropped
    std::vector<double> eval_ms;     ///< per test sample, per evaluation
    std::vector<double> epoch_wall_s;
    std::vector<double> stage_s;     ///< traced run: per epoch
    std::vector<double> bytes;       ///< traced run: per epoch
    double last_accuracy = 0;
    int epochs = 0;
};

/**
 * Train ms per sample of each timed epoch. work_ms and infer_ms take the
 * lower quartile of their intervals, not the median: co-tenants of a
 * shared host slow a share of the intervals that changes from minute to
 * minute (within one run the median epoch ran up to 1.5x the fastest
 * tenth), and that share moves the median between runs far more than
 * the lower quartile.
 */
std::vector<double>
msPerSample(const EpochLoop &loop)
{
    std::vector<double> ms;
    for (double sps : loop.train_sps)
        ms.push_back(1e3 / sps);
    return ms;
}

/** Session::trainEpoch + Task::evaluate until `budget_s` has passed. */
EpochLoop
runEpochs(TrainState &state, const TrainShape &shape, double budget_s,
          int min_epochs, Outcome &out)
{
    EpochLoop loop;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const double stage_before =
            state.timed_source ? state.timed_source->stageSeconds() : 0;
        const std::uint64_t bytes_before = state.source().bytesRead();
        const Clock::time_point a = Clock::now();
        const lr::EpochStats stats = state.session->trainEpoch();
        const Clock::time_point b = Clock::now();
        out.check(std::isfinite(stats.train_loss));
        // One pass over the test set is short next to host noise, so
        // each epoch's weights are evaluated kEvalPasses times.
        lr::TaskMetrics metrics;
        for (int pass = 0; pass < kEvalPasses; ++pass) {
            const Clock::time_point c = Clock::now();
            metrics = state.task->evaluate();
            if (loop.epochs > 0)
                loop.eval_ms.push_back(secondsBetween(c, Clock::now()) *
                                       1e3 / shape.test_samples);
        }
        // The first epoch is warm-up (workspace arenas, replica build).
        if (loop.epochs > 0) {
            loop.train_sps.push_back(shape.train_samples /
                                     secondsBetween(a, b));
            loop.epoch_wall_s.push_back(secondsBetween(a, b));
            if (state.timed_source)
                loop.stage_s.push_back(state.timed_source->stageSeconds() -
                                       stage_before);
            loop.bytes.push_back(static_cast<double>(
                state.source().bytesRead() - bytes_before));
        }
        loop.last_accuracy = metrics.primary;
        ++loop.epochs;
        if (loop.epochs >= min_epochs &&
            secondsBetween(start, Clock::now()) >= budget_s)
            break;
    }
    return loop;
}

void
addNotes(Outcome &out, const TrainShape &shape, const Options &options,
         const std::vector<double> &setups, const EpochLoop &loop)
{
    out.notes.push_back(format(
        "shape: grid=%zu depth=%zu batch=%zu workers=%zu source=%s "
        "train=%zu test=%zu",
        shape.grid, shape.depth, shape.batch, shape.workers,
        shape.sharded ? "sharded(prefetch=1)" : "memory",
        shape.train_samples, shape.test_samples));
    out.notes.push_back(format("setup_s: median %.4f s over %zu set-ups",
                               median(setups), setups.size()));
    out.notes.push_back(format(
        "train_samples_per_s: median %.2f over %zu timed epochs (%d run)",
        median(loop.train_sps), loop.train_sps.size(), loop.epochs));
    out.notes.push_back(format(
        "eval_samples_per_s: median %.2f over %zu timed evaluations "
        "(%zu test samples each)",
        1e3 / median(loop.eval_ms), loop.eval_ms.size(),
        shape.test_samples));
    out.notes.push_back(format(
        "work_ms / infer_ms: lower quartile %.4f / %.4f ms (median %.4f / "
        "%.4f ms)",
        quantile(msPerSample(loop), 0.25), quantile(loop.eval_ms, 0.25),
        median(msPerSample(loop)), median(loop.eval_ms)));
    out.notes.push_back(format("final test accuracy %.4f (floor %.2f)",
                               loop.last_accuracy, options.accuracy_floor));
    out.notes.push_back("serve_p50_ms / serve_p99_ms / serve_capacity_rps: "
                        "n/a on this workload");
}

} // namespace

Outcome
runTrainWorkload(const Options &options)
{
    const TrainShape shape = shapeFor(options.workload);
    Outcome out;

    std::vector<double> setups, packs, calibrations;
    std::unique_ptr<TrainState> state;
    for (int k = 0; k < kSetups; ++k) {
        state.reset();
        const Clock::time_point a = k == 0 ? processStart() : Clock::now();
        state = setUp(shape, options, k);
        setups.push_back(secondsBetween(a, Clock::now()));
        packs.push_back(state->pack_s);
        calibrations.push_back(state->calibrate_s);
        if (shape.sharded)
            out.check(state->manifest_valid);
    }

    if (!options.trace) {
        const EpochLoop loop =
            runEpochs(*state, shape, options.seconds, 3, out);
        out.check(loop.last_accuracy >= options.accuracy_floor);
        addNotes(out, shape, options, setups, loop);
        out.add("setup_s", median(setups), "s");
        out.add("peak_rss_mb", peakRssMb(), "MB");
        out.add("work_ms", quantile(msPerSample(loop), 0.25), "ms");
        out.add("infer_ms", quantile(loop.eval_ms, 0.25), "ms");
        return out;
    }

    // ---- traced run -------------------------------------------------
    // Untraced Session epochs first (parallel efficiency, data-layer
    // waits), then the same steps replayed without and with spans.
    const EpochLoop loop =
        runEpochs(*state, shape, options.seconds / 2, 2, out);
    addNotes(out, shape, options, setups, loop);

    lr::Adam adam(state->config.lr);
    adam.attach(state->model->params());
    lr::Rng order_rng(deriveSeed(options.seed, 5));
    Tracer untraced(false);
    const Clock::time_point a = Clock::now();
    const std::size_t replayed_plain =
        replayTraining(*state, adam, order_rng, kReplayBatches, untraced, out);
    const double plain_s = secondsBetween(a, Clock::now());

    Tracer tracer(true);
    const Clock::time_point b = Clock::now();
    const std::size_t replayed =
        replayTraining(*state, adam, order_rng, kReplayBatches, tracer, out);
    const double traced_s = secondsBetween(b, Clock::now());
    replayEvaluation(*state, tracer, out);

    const double plain_us_per_sample = plain_s * 1e6 / replayed_plain;
    const double traced_us_per_sample = traced_s * 1e6 / replayed;
    const Tracer::Coverage cover = tracer.coverage(
        "train.step", {"core.sample", "core.backward"});
    const lr::Propagator &hop = *state->model->hopPropagator();
    const KernelTimes kernels = measureKernels(hop, 0.5, options.seed);

    // Every hop (depth pre-layer hops + the final hop) is one FFT pair
    // forward and one in the adjoint.
    const double fft_calls = 2.0 * static_cast<double>(shape.depth + 1);
    addKernelMetrics(out, kernels, fft_calls, traced_us_per_sample,
                     state->tf);
    out.add("core.encode_us",
            median(tracer.childSumsUs("core.sample", "core.encode")), "us");
    out.add("core.layer_fwd_us",
            median(tracer.childSumsUs("core.sample", "core.layer_fwd")), "us");
    out.add("core.detector_us",
            median(tracer.childSumsUs("core.sample", "core.detector")), "us");
    out.add("core.loss_us",
            median(tracer.childSumsUs("core.sample", "core.loss")), "us");
    out.add("core.backward_us",
            median(tracer.childSumsUs("core.sample", "core.backward")), "us");
    out.add("core.adam_us", median(tracer.durationsUs("core.adam")), "us");
    out.add("core.infer_us",
            median(tracer.childSumsUs("eval.sample", "core.infer")), "us");
    // Replayed serial work per epoch over the parallel epoch's
    // worker-seconds. On the serial workload (workers=1) this is the
    // replay's fidelity to Session::trainEpoch and should read ~1.
    out.add("core.parallel_eff",
            plain_us_per_sample * 1e-6 * shape.train_samples /
                (median(loop.epoch_wall_s) *
                 static_cast<double>(shape.workers)),
            "ratio");
    out.add("core.calibrate_s", median(calibrations), "s");
    if (shape.sharded) {
        out.add("data.decode_ms", measureDecodeMs(*state->manifest, 3), "ms");
        out.add("data.bytes_read", median(loop.bytes), "bytes");
        out.add("data.stage_wait_s", median(loop.stage_s), "s");
        out.add("data.pack_s", median(packs), "s");
    }
    out.add("trace.step_coverage", cover.covered_share, "ratio");
    out.add("trace.uncovered_us", cover.uncovered_us_median, "us");
    out.add("trace.overhead", traced_s / plain_s - 1.0, "ratio");
    out.notes.push_back(format(
        "replay: %zu samples in %zu steps; untraced %.1f us/sample, traced "
        "%.1f us/sample; spans cover %.2f%% of step wall, median uncovered "
        "%.1f us/step",
        replayed, cover.roots, plain_us_per_sample, traced_us_per_sample,
        100.0 * cover.covered_share, cover.uncovered_us_median));
    finishTrace(out, tracer, options);
    return out;
}

} // namespace perfbench
