/**
 * @file
 * Training hot-path benchmark for the zero-allocation workspace engine.
 *
 * Emits bench_results/BENCH_train.json with a "workspace" section:
 * steady-state single-thread train-step throughput (samples/sec) of the
 * in-place workspace pipeline versus a faithful re-implementation of the
 * pre-workspace allocating path (per-sample source-profile recompute,
 * fresh pad/crop/return buffers and cache copies per layer — exactly the
 * churn the workspace engine removes). Both paths compute
 * bitwise-identical losses, which the harness asserts. Gate: >= 1.2x at
 * the best measured size, single-thread, so it applies on every host.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "optics/laser.hpp"
#include "utils/json.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

namespace {

struct BenchModel
{
    DonnModel model;
    std::vector<RealMap> images;
    std::vector<int> labels;
};

BenchModel
makeBenchModel(std::size_t n, std::size_t depth, std::size_t samples)
{
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    Laser laser;
    laser.profile = BeamProfile::Gaussian; // realistic non-trivial beam
    Rng rng(7);
    DonnModel model = ModelBuilder(spec, laser)
                          .diffractiveLayers(depth, 1.0, &rng)
                          .detectorGrid(10, std::max<std::size_t>(n / 8, 1))
                          .build();
    std::vector<RealMap> images;
    std::vector<int> labels;
    for (std::size_t s = 0; s < samples; ++s) {
        RealMap image(n, n);
        for (std::size_t i = 0; i < image.size(); ++i)
            image[i] = rng.uniform(0, 1);
        images.push_back(std::move(image));
        labels.push_back(static_cast<int>(s % 10));
    }
    return BenchModel{std::move(model), std::move(images),
                      std::move(labels)};
}

/**
 * One train step over every sample through the in-place workspace
 * pipeline (what ClassificationTask::sampleStep runs). Returns the loss
 * sum for the cross-check against the allocating path.
 */
Real
workspaceSweep(BenchModel &bm)
{
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const Grid grid = bm.model.spec().grid();
    Real loss_sum = 0;
    for (std::size_t s = 0; s < bm.images.size(); ++s) {
        WorkspaceField u(workspace, grid.n, grid.n);
        bm.model.encodeInto(bm.images[s], u.get());
        std::vector<Real> logits =
            bm.model.forwardLogitsInPlace(u.get(), true, workspace);
        LossResult loss = classificationLoss(LossKind::SoftmaxMse, logits,
                                             bm.labels[s]);
        loss_sum += loss.value;
        bm.model.backwardFromLogitsInPlace(loss.dlogits, u.get(),
                                           workspace);
    }
    bm.model.zeroGrad();
    return loss_sum;
}

/**
 * Faithful re-creation of the pre-workspace per-sample train step: the
 * source profile is recomputed per encode, every layer allocates its
 * diffracted/output fields and copies them into activation caches, and
 * the backward pass allocates a fresh gradient field per hop — the exact
 * data flow (and allocation pattern) of the seed DiffractiveLayer /
 * DonnModel code. Numerics are bitwise-identical to the workspace path.
 */
struct AllocatingLayerCache
{
    Field diffracted;
    Field out;
    RealMap phase_grad;
};

Real
allocatingSweep(BenchModel &bm, std::vector<AllocatingLayerCache> &caches)
{
    const Grid grid = bm.model.spec().grid();
    const Laser &laser = bm.model.laser();
    const Propagator &prop = *bm.model.hopPropagator();
    const std::size_t depth = bm.model.depth();
    caches.resize(depth);
    Real loss_sum = 0;

    for (std::size_t s = 0; s < bm.images.size(); ++s) {
        // Seed encode: profile transcendentals evaluated per sample.
        Field input = encodeInput(bm.images[s], laser, grid);

        // Forward: fresh buffers + cache copies per layer, as the
        // pre-workspace DiffractiveLayer::forward did.
        Field u = input;
        for (std::size_t l = 0; l < depth; ++l) {
            auto *layer =
                dynamic_cast<DiffractiveLayer *>(bm.model.layer(l));
            // Baseline reproduces the pre-workspace allocating path
            // on purpose.
            // lint:allow(deprecated-api)
            Field diffracted = prop.forward(u);
            Field out(grid.n, grid.n);
            const RealMap &phase = layer->phase();
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = diffracted[i] * std::polar(Real(1), phase[i]);
            caches[l].diffracted = std::move(diffracted);
            caches[l].out = out;
            u = std::move(out);
        }
        Field det = prop.forward(u); // lint:allow(deprecated-api)

        std::vector<Real> logits = bm.model.detector().forward(det);
        LossResult loss = classificationLoss(LossKind::SoftmaxMse, logits,
                                             bm.labels[s]);
        loss_sum += loss.value;

        // Backward: fresh gradient field per hop, as the seed did.
        Field g = bm.model.detector().backward(loss.dlogits);
        g = prop.adjoint(g); // lint:allow(deprecated-api)
        for (std::size_t l = depth; l-- > 0;) {
            auto *layer =
                dynamic_cast<DiffractiveLayer *>(bm.model.layer(l));
            const RealMap &phase = layer->phase();
            RealMap &pg = caches[l].phase_grad;
            if (pg.size() != phase.size())
                pg = RealMap(grid.n, grid.n);
            for (std::size_t i = 0; i < pg.size(); ++i) {
                Complex tangent = kJ * caches[l].out[i];
                pg[i] += std::real(std::conj(g[i]) * tangent);
            }
            Field grad_diff(grid.n, grid.n);
            for (std::size_t i = 0; i < grad_diff.size(); ++i)
                grad_diff[i] = g[i] * std::polar(Real(1), -phase[i]);
            g = prop.adjoint(grad_diff); // lint:allow(deprecated-api)
        }
    }
    for (AllocatingLayerCache &cache : caches)
        cache.phase_grad.fill(0);
    return loss_sum;
}

double
medianMs(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

int
main()
{
    bench::banner("Train pipeline: workspace reuse",
                  "ROADMAP perf: zero-alloc hot path");

    const std::size_t depth = 5;
    const std::size_t sweep_samples = scaled<std::size_t>(12, 24);
    std::vector<std::size_t> sizes =
        benchFullScale() ? std::vector<std::size_t>{32, 64, 96, 128}
                         : std::vector<std::size_t>{32, 64, 96};

    CsvWriter csv;
    csv.header({"size", "allocating_ms", "workspace_ms", "speedup",
                "workspace_samples_per_sec"});

    std::printf("\nsingle-thread steady-state train step, depth=%zu "
                "(per-sample ms)\n",
                depth);
    std::printf("%-8s %14s %14s %9s %14s\n", "size", "allocating_ms",
                "workspace_ms", "speedup", "samples/sec");

    Json workspace_rows;
    Real best_speedup = 0;
    bool losses_identical = true;
    for (std::size_t n : sizes) {
        BenchModel bm = makeBenchModel(n, depth, sweep_samples);
        std::vector<AllocatingLayerCache> caches;

        // Warm both paths (plans, kernels, caches, arena) and pin the
        // bitwise cross-check before timing.
        Real ws_loss = workspaceSweep(bm);
        Real alloc_loss = allocatingSweep(bm, caches);
        bm.model.zeroGrad();
        losses_identical = losses_identical && (ws_loss == alloc_loss);

        const int reps = n <= 64 ? 5 : 3;
        std::vector<double> ws_ms, alloc_ms;
        for (int r = 0; r < reps; ++r) {
            WallTimer t1;
            workspaceSweep(bm);
            ws_ms.push_back(t1.milliseconds());
            WallTimer t2;
            allocatingSweep(bm, caches);
            alloc_ms.push_back(t2.milliseconds());
            bm.model.zeroGrad();
        }
        double ws_per_sample = medianMs(ws_ms) / sweep_samples;
        double alloc_per_sample = medianMs(alloc_ms) / sweep_samples;
        double speedup = alloc_per_sample / ws_per_sample;
        double samples_per_sec = 1e3 / ws_per_sample;
        best_speedup = std::max<Real>(best_speedup, speedup);
        std::printf("%-8zu %14.3f %14.3f %8.2fx %14.1f\n", n,
                    alloc_per_sample, ws_per_sample, speedup,
                    samples_per_sec);

        csv.rowNumeric({static_cast<double>(n), alloc_per_sample,
                        ws_per_sample, speedup, samples_per_sec});
        Json row;
        row["size"] = Json(n);
        row["depth"] = Json(depth);
        row["allocating_ms_per_sample"] = Json(alloc_per_sample);
        row["workspace_ms_per_sample"] = Json(ws_per_sample);
        row["speedup"] = Json(speedup);
        row["workspace_samples_per_sec"] = Json(samples_per_sec);
        row["loss_bitwise_identical"] = Json(ws_loss == alloc_loss);
        workspace_rows.push(std::move(row));
    }
    std::printf("paths bitwise-identical: %s\n",
                losses_identical ? "yes" : "NO");

    // Workspace reuse is single-thread, so the gate applies everywhere.
    const bool workspace_gate_pass =
        best_speedup >= 1.2 && losses_identical;

    std::printf("\ngate: workspace >= 1.2x single-thread (best size), "
                "bitwise losses -> %s (%.2fx)\n",
                workspace_gate_pass ? "PASS" : "FAIL", best_speedup);

    bench::saveCsv(csv, "train_pipeline");
    Json artifact;
    artifact["bench"] = Json("train_pipeline");
    artifact["scale"] = Json(benchFullScale() ? "full" : "quick");
    artifact["hw_threads"] = Json(ThreadPool::global().workerCount());
    artifact["alloc_stats_compiled"] = Json(fieldAllocStatsEnabled());
    artifact["workspace"] = std::move(workspace_rows);
    Json gates;
    gates["workspace_best_speedup"] = Json(best_speedup);
    gates["workspace_losses_bitwise"] = Json(losses_identical);
    gates["workspace_gate_pass"] = Json(workspace_gate_pass);
    artifact["gates"] = std::move(gates);
    const std::string json_path = bench::resultsDir() + "/BENCH_train.json";
    if (artifact.save(json_path))
        std::printf("[json] %s\n", json_path.c_str());

    return workspace_gate_pass ? 0 : 1;
}
