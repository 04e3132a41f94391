/**
 * @file
 * Figure 9 reproduction: end-to-end emulation speedups of LightRidge over
 * the LightPipes-like baseline across DONN depth {1,3,5,7,10} and system
 * size (quick: 64..128; full: 100..500). Paper CPU result: up to 6.4x at
 * depth 5, size 500^2, consistently > 1 everywhere.
 *
 * A second section benchmarks the batched propagation engine (plan +
 * transfer-function caches, thread-pool sample parallelism) against the
 * single-threaded uncached baseline, verifies the cached path is
 * bitwise-identical to recomputing everything from scratch, and emits the
 * combined results as bench_results/BENCH_fig9.json for CI artifacts.
 *
 * A third section benchmarks the Session engine's shared data-parallel
 * training pipeline (workers=4 vs the workers=1 serial reference) on the
 * segmentation and RGB tasks — the two paths that were serial-only before
 * the Task/Session redesign — gating >= 2x at equal losses when the host
 * has enough hardware threads.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baseline/lightpipes_like.hpp"
#include "bench_common.hpp"
#include "core/model.hpp"
#include "core/session.hpp"
#include "data/synth_city.hpp"
#include "data/synth_scenes.hpp"
#include "utils/json.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

int
main()
{
    bench::banner("Figure 9: end-to-end emulation speedups",
                  "paper Fig. 9a: up to 6.4x CPU");

    std::vector<std::size_t> sizes =
        benchFullScale() ? std::vector<std::size_t>{100, 200, 300, 400, 500}
                         : std::vector<std::size_t>{64, 100, 128};
    std::vector<std::size_t> depths{1, 3, 5, 7, 10};
    const Real pitch = 36e-6, lambda = 532e-9;

    CsvWriter csv;
    csv.header({"size", "depth", "lightridge_ms", "lightpipes_ms",
                "speedup"});
    Json sweep_rows;

    std::printf("\n%-8s", "depth\\n");
    for (std::size_t n : sizes)
        std::printf(" %8zu", n);
    std::printf("   (speedup = baseline / lightridge)\n");

    for (std::size_t depth : depths) {
        std::printf("%-8zu", depth);
        for (std::size_t n : sizes) {
            Real z = idealDistanceHalfCone(Grid{n, pitch}, lambda);
            Rng rng(1);
            RealMap input(n, n);
            for (std::size_t i = 0; i < input.size(); ++i)
                input[i] = rng.uniform(0, 1);
            std::vector<RealMap> phases;
            for (std::size_t l = 0; l < depth; ++l) {
                RealMap phase(n, n);
                for (std::size_t i = 0; i < phase.size(); ++i)
                    phase[i] = rng.uniform(0, kTwoPi);
                phases.push_back(phase);
            }

            // LightRidge path.
            SystemSpec spec;
            spec.size = n;
            spec.pixel = pitch;
            spec.distance = z;
            DonnModel model(spec, Laser{});
            for (std::size_t l = 0; l < depth; ++l) {
                auto layer = std::make_unique<DiffractiveLayer>(
                    model.hopPropagator());
                layer->phase() = phases[l];
                model.addLayer(std::move(layer));
            }
            Field encoded = Field::fromAmplitude(input);
            model.forwardField(encoded, false); // warm plans
            const int reps = n <= 128 ? 5 : 2;
            WallTimer lr_timer;
            for (int r = 0; r < reps; ++r)
                model.forwardField(encoded, false);
            double lr_ms = lr_timer.milliseconds() / reps;

            // Baseline path (expensive: single reps at large sizes).
            const int lp_reps = n <= 100 ? 2 : 1;
            WallTimer lp_timer;
            for (int r = 0; r < lp_reps; ++r)
                baseline::lpDonnForward(input, phases, pitch, lambda, z);
            double lp_ms = lp_timer.milliseconds() / lp_reps;

            double speedup = lp_ms / lr_ms;
            std::printf(" %7.1fx", speedup);
            std::fflush(stdout);
            csv.rowNumeric({static_cast<double>(n),
                            static_cast<double>(depth), lr_ms, lp_ms,
                            speedup});
            Json row;
            row["size"] = Json(n);
            row["depth"] = Json(depth);
            row["lightridge_ms"] = Json(lr_ms);
            row["lightpipes_ms"] = Json(lp_ms);
            row["speedup"] = Json(speedup);
            sweep_rows.push(std::move(row));
        }
        std::printf("\n");
    }
    std::printf("\npaper shape: speedup > 1 across the whole sweep, "
                "growing with system size.\n");
    bench::saveCsv(csv, "fig9_speedups");

    // ----------------------------------------------------------------
    // Batched propagation: cached + thread-pool engine vs the
    // single-threaded uncached baseline, batch >= 16, threads >= 4.
    // ----------------------------------------------------------------
    const std::size_t batch = 16;
    const std::size_t threads = 4;
    const std::size_t depth = 5;
    ThreadPool pool(threads);
    std::printf("\nbatched propagation (batch=%zu, threads=%zu, depth=%zu) "
                "vs single-threaded uncached baseline\n",
                batch, threads, depth);
    std::printf("%-8s %12s %12s %9s %9s\n", "size", "batched_ms",
                "baseline_ms", "speedup", "bitwise");

    Json batched_rows;
    bool all_identical = true;
    Real min_speedup = 1e300;
    for (std::size_t n : sizes) {
        Real z = idealDistanceHalfCone(Grid{n, pitch}, lambda);
        Rng rng(2);
        std::vector<RealMap> phases;
        for (std::size_t l = 0; l < depth; ++l) {
            RealMap phase(n, n);
            for (std::size_t i = 0; i < phase.size(); ++i)
                phase[i] = rng.uniform(0, kTwoPi);
            phases.push_back(phase);
        }

        SystemSpec spec;
        spec.size = n;
        spec.pixel = pitch;
        spec.distance = z;
        DonnModel model(spec, Laser{});
        for (std::size_t l = 0; l < depth; ++l) {
            auto layer =
                std::make_unique<DiffractiveLayer>(model.hopPropagator());
            layer->phase() = phases[l];
            model.addLayer(std::move(layer));
        }

        std::vector<RealMap> images;
        std::vector<Field> inputs;
        for (std::size_t b = 0; b < batch; ++b) {
            RealMap image(n, n);
            for (std::size_t i = 0; i < image.size(); ++i)
                image[i] = rng.uniform(0, 1);
            inputs.push_back(Field::fromAmplitude(image));
            images.push_back(std::move(image));
        }

        // Cached + batched engine (warm the caches first).
        std::vector<Field> outputs = model.forwardFieldBatch(inputs, &pool);
        const int reps = n <= 128 ? 3 : 1;
        WallTimer batched_timer;
        for (int r = 0; r < reps; ++r)
            outputs = model.forwardFieldBatch(inputs, &pool);
        double batched_ms = batched_timer.milliseconds() / reps;

        // Identical numerics: the batched cached path must match a serial
        // pass through the same stack bit for bit.
        Real diff = 0;
        for (std::size_t b = 0; b < batch; ++b)
            diff = std::max(diff,
                            maxAbsDiff(outputs[b], model.inferField(inputs[b])));
        bool identical = diff == 0.0;
        all_identical = all_identical && identical;

        // Single-threaded uncached baseline over the same batch.
        const int lp_reps = 1;
        WallTimer lp_timer;
        for (int r = 0; r < lp_reps; ++r)
            for (std::size_t b = 0; b < batch; ++b)
                baseline::lpDonnForward(images[b], phases, pitch, lambda, z);
        double lp_batch_ms = lp_timer.milliseconds() / lp_reps;

        double speedup = lp_batch_ms / batched_ms;
        min_speedup = std::min<Real>(min_speedup, speedup);
        std::printf("%-8zu %12.1f %12.1f %8.1fx %9s\n", n, batched_ms,
                    lp_batch_ms, speedup, identical ? "yes" : "NO");

        Json row;
        row["size"] = Json(n);
        row["depth"] = Json(depth);
        row["batch"] = Json(batch);
        row["threads"] = Json(threads);
        row["batched_ms"] = Json(batched_ms);
        row["baseline_ms"] = Json(lp_batch_ms);
        row["speedup"] = Json(speedup);
        row["bitwise_identical"] = Json(identical);
        batched_rows.push(std::move(row));
    }
    std::printf("target: >= 2x everywhere, bitwise-identical cached path "
                "-> %s (min %.1fx)\n",
                (min_speedup >= 2.0 && all_identical) ? "PASS" : "FAIL",
                min_speedup);

    // ----------------------------------------------------------------
    // Data-parallel training across task kinds: the Session engine's
    // replica pipeline (workers=4) vs the serial reference (workers=1)
    // on segmentation and RGB epochs — the two paths that used to be
    // serial-only. Requires >= 4 hardware threads to show a speedup.
    // ----------------------------------------------------------------
    const std::size_t train_workers = 4;
    std::printf("\ndata-parallel training (Session, workers=%zu vs 1)\n",
                train_workers);
    std::printf("%-14s %12s %12s %9s %12s\n", "task", "serial_ms",
                "parallel_ms", "speedup", "loss_match");

    Json training_rows;
    Real min_train_speedup = 1e300;
    bool all_losses_match = true;

    auto recordTraining = [&](const char *task_name, double serial_ms,
                              double parallel_ms, Real serial_loss,
                              Real parallel_loss) {
        double speedup = serial_ms / parallel_ms;
        bool match = std::abs(parallel_loss - serial_loss) <=
                     0.5 * std::abs(serial_loss) + 0.05;
        min_train_speedup = std::min<Real>(min_train_speedup, speedup);
        all_losses_match = all_losses_match && match;
        std::printf("%-14s %12.1f %12.1f %8.1fx %12s\n", task_name,
                    serial_ms, parallel_ms, speedup, match ? "yes" : "NO");
        Json row;
        row["task"] = Json(task_name);
        row["workers"] = Json(train_workers);
        row["serial_ms"] = Json(serial_ms);
        row["parallel_ms"] = Json(parallel_ms);
        row["speedup"] = Json(speedup);
        row["serial_loss"] = Json(serial_loss);
        row["parallel_loss"] = Json(parallel_loss);
        row["loss_match"] = Json(match);
        training_rows.push(std::move(row));
    };

    const std::size_t train_n = scaled<std::size_t>(64, 128);
    {
        // Segmentation workload: 5-layer stack, image-to-image loss.
        CityConfig ccfg;
        ccfg.image_size = train_n;
        SegDataset seg_train = makeSynthCity(48, 1, ccfg);
        auto runSeg = [&](std::size_t workers) {
            SystemSpec sspec;
            sspec.size = train_n;
            sspec.pixel = pitch;
            sspec.distance = idealDistanceHalfCone(Grid{train_n, pitch},
                                                   lambda);
            Rng srng(3);
            DonnModel model(sspec, Laser{});
            for (int l = 0; l < 5; ++l)
                model.addLayer(std::make_unique<DiffractiveLayer>(
                    model.hopPropagator(), 1.0, &srng));
            model.setDetector(DetectorPlane(
                DetectorPlane::gridLayout(train_n, 2, 2)));
            TrainConfig cfg;
            cfg.epochs = 2;
            cfg.batch = 24;
            cfg.lr = 0.08;
            cfg.workers = workers;
            SegmentationTask task(model, seg_train);
            return Session(task, cfg).fit();
        };
        auto serial = runSeg(1);
        auto parallel = runSeg(train_workers);
        recordTraining(
            "segmentation",
            1e3 * std::min(serial[0].seconds, serial[1].seconds),
            1e3 * std::min(parallel[0].seconds, parallel[1].seconds),
            serial.back().train_loss, parallel.back().train_loss);
    }
    {
        // RGB workload: three parallel 3-layer stacks, shared detector.
        const std::size_t rgb_n = scaled<std::size_t>(48, 96);
        SceneConfig scfg;
        scfg.image_size = rgb_n;
        RgbDataset rgb_train = makeSynthScenes(24, 1, scfg);
        auto runRgb = [&](std::size_t workers) {
            SystemSpec rspec;
            rspec.size = rgb_n;
            rspec.pixel = pitch;
            rspec.distance = idealDistanceHalfCone(Grid{rgb_n, pitch},
                                                   lambda);
            Rng rrng(3);
            std::vector<std::unique_ptr<DonnModel>> channels;
            for (int ch = 0; ch < 3; ++ch)
                channels.push_back(std::make_unique<DonnModel>(
                    ModelBuilder(rspec, Laser{})
                        .diffractiveLayers(3, 1.0, &rrng)
                        .detectorGrid(rgb_train.num_classes, rgb_n / 8)
                        .build()));
            MultiChannelDonn model(std::move(channels));
            TrainConfig cfg;
            cfg.epochs = 2;
            cfg.batch = 12;
            cfg.lr = 0.03;
            cfg.workers = workers;
            RgbTask task(model, rgb_train);
            return Session(task, cfg).fit();
        };
        auto serial = runRgb(1);
        auto parallel = runRgb(train_workers);
        recordTraining(
            "rgb",
            1e3 * std::min(serial[0].seconds, serial[1].seconds),
            1e3 * std::min(parallel[0].seconds, parallel[1].seconds),
            serial.back().train_loss, parallel.back().train_loss);
    }

    const std::size_t hw_threads = ThreadPool::global().workerCount();
    const bool train_gate_applies = hw_threads >= train_workers;
    const bool train_pass =
        (!train_gate_applies || min_train_speedup >= 2.0) &&
        all_losses_match;
    std::printf("target: >= 2x on both tasks at equal losses "
                "(gated when >= %zu hw threads; have %zu) -> %s "
                "(min %.1fx)\n",
                train_workers, hw_threads, train_pass ? "PASS" : "FAIL",
                min_train_speedup);

    Json artifact;
    artifact["bench"] = Json("fig9_speedups");
    artifact["scale"] = Json(benchFullScale() ? "full" : "quick");
    bench::stampProvenance(&artifact);
    artifact["per_sample_sweep"] = std::move(sweep_rows);
    artifact["batched"] = std::move(batched_rows);
    artifact["min_batched_speedup"] = Json(min_speedup);
    artifact["bitwise_identical"] = Json(all_identical);
    artifact["training"] = std::move(training_rows);
    artifact["min_training_speedup"] = Json(min_train_speedup);
    artifact["training_losses_match"] = Json(all_losses_match);
    artifact["hw_threads"] = Json(hw_threads);
    const std::string json_path = bench::resultsDir() + "/BENCH_fig9.json";
    if (artifact.save(json_path))
        std::printf("[json] %s\n", json_path.c_str());

    return (min_speedup >= 2.0 && all_identical && train_pass) ? 0 : 1;
}
