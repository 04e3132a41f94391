/**
 * @file
 * FFT kernel-engine benchmark: the SIMD-vectorized SoA kernel set versus
 * the scalar reference kernels on the propagation hot path (paper Section
 * 5.3 / Fig. 8: FFT2 -> transfer-function Hadamard -> iFFT2), plus the
 * row-parallel FFT2 scaling of one large grid across the thread pool.
 *
 * Emits bench_results/BENCH_fft.json with three sections:
 *  - "single_thread": per-size scalar vs SIMD timings of the fused
 *    fft2 + Hadamard + ifft2 pass, run strictly serially (96^2 is the
 *    2^5 * 3 mixed-radix grid of the 96x96 training workload). Gate:
 *    >= 1.5x at 512x512 when the SIMD kernel set is compiled in.
 *  - "one_d": per-length 1-D plan forward and inverse timings covering
 *    the power-of-two, radix-3-outermost (2^k * 3), generic
 *    mixed-radix, and Bluestein code paths.
 *  - "row_parallel": fft2 wall time with 1/2/4-worker pools. The scaling
 *    gate (>= 1.3x at 4 workers) only applies when the host has >= 4
 *    hardware threads, so single-CPU runners report without failing.
 *  - "hop_96": one 96^2 Propagator::forwardInto hop (the fused lane-engine
 *    convolveInto) per ISA build of the lane kernels, baseline against
 *    AVX2, run serially; "avx2_ms" is 0 where AVX2 is not available.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "fft/fft.hpp"
#include "fft/kernels.hpp"
#include "optics/propagator.hpp"
#include "tensor/field.hpp"
#include "utils/json.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

namespace {

Field
randomField(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

/** Unit-modulus pseudo transfer function (what propagation multiplies). */
Field
randomKernel(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i) {
        Real phase = rng.uniform(0, kTwoPi);
        f[i] = Complex{std::cos(phase), std::sin(phase)};
    }
    return f;
}

/** One fused hot-path pass: fft2 -> Hadamard -> ifft2, serial. */
void
convolvePass(const Fft2d &fft, Field *work, const Field &kernel,
             ThreadPool *pool)
{
    fft.forward(work, pool);
    work->hadamard(kernel);
    fft.inverse(work, pool);
}

double
medianMs(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Median wall time of reps passes over the same warm state. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        WallTimer timer;
        fn();
        samples.push_back(timer.milliseconds());
    }
    return medianMs(std::move(samples));
}

} // namespace

int
main()
{
    bench::banner("FFT kernel engine: SIMD SoA kernels + row-parallel FFT2",
                  "ROADMAP perf item; paper Sec. 5.3 hot path");

    const std::size_t hw_threads = std::thread::hardware_concurrency();
    std::printf("simd kernels compiled: %s   hardware threads: %zu\n\n",
                simdKernelsCompiled() ? "yes" : "no", hw_threads);

    Json artifact;
    artifact["bench"] = Json("fft_kernels");
    artifact["scale"] = Json(benchFullScale() ? "full" : "quick");
    artifact["simd_compiled"] = Json(simdKernelsCompiled());
    artifact["hw_threads"] = Json(hw_threads);
    bench::stampProvenance(&artifact);

    // ThreadPool(1) is coerced to inline (0-worker) execution, which
    // forces the strictly serial path even on many-core hosts, so the
    // single-thread section isolates kernel quality. (ThreadPool(0) would
    // instead size the pool from hardware_concurrency.)
    ThreadPool serial_pool(1);

    // ----------------------------------------------------------------
    // Section 1: single-thread kernel speedup on the fused hot path.
    // ----------------------------------------------------------------
    const std::size_t gate_size = 512;
    std::vector<std::size_t> sizes{96, 128, 256, gate_size};
    if (benchFullScale())
        sizes.push_back(1024);

    std::printf("single-thread fft2 + Hadamard + ifft2 "
                "(scalar vs simd kernels)\n");
    std::printf("%-8s %12s %12s %9s\n", "size", "scalar_ms", "simd_ms",
                "speedup");

    Json single_rows;
    double gate_speedup = 0;
    for (std::size_t n : sizes) {
        Fft2d fft(n, n);
        Field kernel = randomKernel(n, 7);
        Field input = randomField(n, 11);
        const int reps = n <= 256 ? 9 : 5;

        // The fused pass is forward + unit-modulus Hadamard + inverse, so
        // repeated application keeps magnitudes bounded: the timed region
        // is pure transform work with no staging copies.
        Field work = input;
        double scalar_ms, simd_ms = 0;
        {
            FftKernelModeGuard guard(FftKernelMode::Scalar);
            convolvePass(fft, &work, kernel, &serial_pool); // warm scratch
            scalar_ms = timeMs(reps, [&] {
                convolvePass(fft, &work, kernel, &serial_pool);
            });
        }
        if (simdKernelsCompiled()) {
            FftKernelModeGuard guard(FftKernelMode::Simd);
            work = input;
            convolvePass(fft, &work, kernel, &serial_pool);
            simd_ms = timeMs(reps, [&] {
                convolvePass(fft, &work, kernel, &serial_pool);
            });
        }

        double speedup = simd_ms > 0 ? scalar_ms / simd_ms : 0;
        if (n == gate_size)
            gate_speedup = speedup;
        std::printf("%-8zu %12.2f %12.2f %8.2fx\n", n, scalar_ms, simd_ms,
                    speedup);
        Json row;
        row["size"] = Json(n);
        row["scalar_ms"] = Json(scalar_ms);
        row["simd_ms"] = Json(simd_ms);
        row["speedup"] = Json(speedup);
        single_rows.push(std::move(row));
    }
    artifact["single_thread"] = std::move(single_rows);

    // ----------------------------------------------------------------
    // Section 2: 1-D plan kernels across algorithm paths.
    // ----------------------------------------------------------------
    struct OneD
    {
        const char *path;
        std::size_t n;
    };
    std::vector<OneD> lengths{{"radix24_pow2", 512},
                              {"mixed_radix_96", 96},
                              {"mixed_radix_192", 192},
                              {"mixed_radix", 500},
                              {"bluestein_prime", 509}};
    std::printf("\n1-D plan forward and inverse (256 transforms each)\n");
    std::printf("%-18s %6s %10s %10s %10s %10s %9s\n", "path", "n",
                "scalar_fwd", "scalar_inv", "simd_fwd", "simd_inv",
                "speedup");

    Json one_d_rows;
    for (const OneD &c : lengths) {
        auto plan = acquireFftPlan(c.n);
        // A ring of distinct signals, each taken forward and then back
        // per sweep, keeps the signal scale fixed across reps (an
        // unnormalized forward grows by sqrt(n) per application) while
        // the two directions are timed separately.
        constexpr int kRing = 16, kSweeps = 16;
        Rng rng(13);
        std::vector<std::vector<Complex>> ring(kRing,
                                               std::vector<Complex>(c.n));
        for (auto &signal : ring)
            for (auto &v : signal)
                v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

        struct Times
        {
            double fwd_ms = 0, inv_ms = 0;
        };
        auto run_batch = [&] {
            Times t;
            for (int s = 0; s < kSweeps; ++s) {
                WallTimer fwd;
                for (auto &signal : ring)
                    plan->forward(signal.data());
                t.fwd_ms += fwd.milliseconds();
                WallTimer inv;
                for (auto &signal : ring)
                    plan->inverse(signal.data());
                t.inv_ms += inv.milliseconds();
            }
            return t;
        };
        auto median_times = [&] {
            run_batch(); // warm scratch and caches
            std::vector<double> fwd, inv;
            for (int r = 0; r < 5; ++r) {
                Times t = run_batch();
                fwd.push_back(t.fwd_ms);
                inv.push_back(t.inv_ms);
            }
            return Times{medianMs(fwd), medianMs(inv)};
        };
        Times scalar, simd;
        {
            FftKernelModeGuard guard(FftKernelMode::Scalar);
            scalar = median_times();
        }
        if (simdKernelsCompiled()) {
            FftKernelModeGuard guard(FftKernelMode::Simd);
            simd = median_times();
        }
        const double simd_pair = simd.fwd_ms + simd.inv_ms;
        const double speedup =
            simd_pair > 0 ? (scalar.fwd_ms + scalar.inv_ms) / simd_pair : 0;
        std::printf("%-18s %6zu %10.3f %10.3f %10.3f %10.3f %8.2fx\n",
                    c.path, c.n, scalar.fwd_ms, scalar.inv_ms, simd.fwd_ms,
                    simd.inv_ms, speedup);
        Json row;
        row["path"] = Json(c.path);
        row["n"] = Json(c.n);
        row["scalar_fwd_ms"] = Json(scalar.fwd_ms);
        row["scalar_inv_ms"] = Json(scalar.inv_ms);
        row["simd_fwd_ms"] = Json(simd.fwd_ms);
        row["simd_inv_ms"] = Json(simd.inv_ms);
        row["speedup"] = Json(speedup);
        one_d_rows.push(std::move(row));
    }
    artifact["one_d"] = std::move(one_d_rows);

    // ----------------------------------------------------------------
    // Section 3: row-parallel FFT2 scaling of one large grid.
    // ----------------------------------------------------------------
    const std::size_t par_n = benchFullScale() ? 1024 : 512;
    Fft2d par_fft(par_n, par_n);
    Field par_kernel = randomKernel(par_n, 3);
    Field par_input = randomField(par_n, 5);
    std::printf("\nrow-parallel fft2 + Hadamard + ifft2 at %zu^2 "
                "(default kernel mode)\n",
                par_n);
    std::printf("%-10s %12s %9s\n", "workers", "ms", "speedup");

    Json parallel_rows;
    double serial_ms = 0, four_worker_speedup = 0;
    for (std::size_t workers : {std::size_t(1), std::size_t(2),
                                std::size_t(4)}) {
        ThreadPool pool(workers);
        Field work = par_input;
        convolvePass(par_fft, &work, par_kernel, &pool); // warm
        double ms = timeMs(5, [&] {
            convolvePass(par_fft, &work, par_kernel, &pool);
        });
        if (workers == 1)
            serial_ms = ms;
        double speedup = serial_ms / ms;
        if (workers == 4)
            four_worker_speedup = speedup;
        std::printf("%-10zu %12.2f %8.2fx\n", workers, ms, speedup);
        Json row;
        row["workers"] = Json(workers);
        row["ms"] = Json(ms);
        row["speedup_vs_serial"] = Json(speedup);
        parallel_rows.push(std::move(row));
    }
    artifact["row_parallel"] = std::move(parallel_rows);

    // ----------------------------------------------------------------
    // Section 4: one 96^2 hop per lane-kernel ISA build.
    // ----------------------------------------------------------------
    {
        PropagatorConfig config;
        config.grid = Grid{96, 36e-6};
        config.distance = 0.05;
        Propagator hop(config);
        PropagationWorkspace workspace;
        const Field input = randomField(96, 17);
        Field field = input;
        constexpr int kHops = 64;
        auto hop_ms = [&](LaneIsa isa) {
            LaneIsaGuard guard(isa);
            for (int i = 0; i < kHops; ++i) // warm scratch and caches
                hop.forwardInto(field, field, workspace);
            // The unit-modulus kernel keeps the field bounded.
            return timeMs(15, [&] {
                for (int i = 0; i < kHops; ++i)
                    hop.forwardInto(field, field, workspace);
            }) / kHops;
        };
        const bool avx2 = laneIsaSupported(LaneIsa::Avx2);
        const double base_ms = hop_ms(LaneIsa::Baseline);
        const double avx2_ms = avx2 ? hop_ms(LaneIsa::Avx2) : 0;
        const double speedup = avx2_ms > 0 ? base_ms / avx2_ms : 0;
        std::printf("\n96^2 Propagator::forwardInto hop per lane-kernel "
                    "build (ms per hop)\n");
        std::printf("%-10s %12s %12s %9s\n", "", "baseline_ms", "avx2_ms",
                    "speedup");
        std::printf("%-10s %12.4f %12.4f %8.2fx\n", "hop", base_ms, avx2_ms,
                    speedup);
        Json row;
        row["size"] = Json(std::size_t(96));
        row["avx2_supported"] = Json(avx2);
        row["baseline_ms"] = Json(base_ms);
        row["avx2_ms"] = Json(avx2_ms);
        row["speedup"] = Json(speedup);
        artifact["hop_96"] = std::move(row);
    }

    // ----------------------------------------------------------------
    // Hardware-conditioned gates.
    // ----------------------------------------------------------------
    const bool simd_gate_applies = simdKernelsCompiled();
    const bool simd_gate_pass = !simd_gate_applies || gate_speedup >= 1.5;
    const bool scaling_gate_applies = hw_threads >= 4;
    const bool scaling_gate_pass =
        !scaling_gate_applies || four_worker_speedup >= 1.3;

    std::printf("\ngate: simd >= 1.5x at %zu^2 single-thread -> %s "
                "(%.2fx%s)\n",
                gate_size, simd_gate_pass ? "PASS" : "FAIL", gate_speedup,
                simd_gate_applies ? "" : ", skipped: simd not compiled");
    std::printf("gate: row-parallel >= 1.3x at 4 workers -> %s (%.2fx%s)\n",
                scaling_gate_pass ? "PASS" : "FAIL", four_worker_speedup,
                scaling_gate_applies ? ""
                                     : ", skipped: < 4 hardware threads");

    Json gates;
    gates["simd_gate_applies"] = Json(simd_gate_applies);
    gates["simd_speedup_512"] = Json(gate_speedup);
    gates["simd_gate_pass"] = Json(simd_gate_pass);
    gates["scaling_gate_applies"] = Json(scaling_gate_applies);
    gates["scaling_speedup_4w"] = Json(four_worker_speedup);
    gates["scaling_gate_pass"] = Json(scaling_gate_pass);
    artifact["gates"] = std::move(gates);
    const bool pass = simd_gate_pass && scaling_gate_pass;
    artifact["pass"] = Json(pass);

    const std::string json_path = bench::resultsDir() + "/BENCH_fft.json";
    if (artifact.save(json_path))
        std::printf("[json] %s\n", json_path.c_str());

    return pass ? 0 : 1;
}
