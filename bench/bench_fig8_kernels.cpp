/**
 * @file
 * Figure 8 reproduction: kernel-level speedup breakdown (google-benchmark).
 *
 * The paper decomposes the 5-layer DONN emulation into its three dominant
 * tensor operators - FFT2, iFFT2, and complex matrix (Hadamard) multiply -
 * and reports per-kernel speedups of the optimized LightRidge kernels over
 * LightPipes (CPU: 11x / 10x / 4x, 6.4x overall). This binary benchmarks
 * each operator in both engines at the same size and prints the same
 * breakdown; a custom reporter computes the speedup summary at exit and
 * writes it, with provenance, to bench_results/BENCH_fig8.json.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "baseline/lightpipes_like.hpp"
#include "bench_common.hpp"
#include "fft/fft.hpp"
#include "utils/cli.hpp"
#include "utils/rng.hpp"

using namespace lightridge;

namespace {

std::size_t
benchSize()
{
    return scaled<std::size_t>(128, 500);
}

/** Shared random field for every kernel benchmark. */
Field
makeField(std::size_t n)
{
    Rng rng(3);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

void
LightRidge_FFT2(benchmark::State &state)
{
    const std::size_t n = benchSize();
    Fft2d fft(n, n);
    Field f = makeField(n);
    for (auto _ : state) {
        fft.forward(&f);
        benchmark::DoNotOptimize(f.data());
    }
}

void
LightRidge_iFFT2(benchmark::State &state)
{
    const std::size_t n = benchSize();
    Fft2d fft(n, n);
    Field f = makeField(n);
    for (auto _ : state) {
        fft.inverse(&f);
        benchmark::DoNotOptimize(f.data());
    }
}

/**
 * Phase-mask multiplier: unit modulus, so repeated in-place application
 * neither overflows nor decays (representative of DONN modulation).
 */
Field
makeMask(std::size_t n)
{
    Rng rng(5);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = std::polar(Real(1), rng.uniform(0, kTwoPi));
    return f;
}

void
LightRidge_ComplexMM(benchmark::State &state)
{
    const std::size_t n = benchSize();
    Field a = makeField(n);
    Field b = makeMask(n);
    for (auto _ : state) {
        a.hadamard(b);
        benchmark::DoNotOptimize(a.data());
    }
}

void
LightPipes_FFT2(benchmark::State &state)
{
    const std::size_t n = benchSize();
    Rng rng(3);
    std::vector<Real> re(n * n), im(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
    }
    for (auto _ : state) {
        baseline::lpFft2d(n, &re, &im, -1);
        benchmark::DoNotOptimize(re.data());
    }
}

void
LightPipes_iFFT2(benchmark::State &state)
{
    const std::size_t n = benchSize();
    Rng rng(3);
    std::vector<Real> re(n * n), im(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        re[i] = rng.uniform(-1, 1);
        im[i] = rng.uniform(-1, 1);
    }
    for (auto _ : state) {
        baseline::lpFft2d(n, &re, &im, +1);
        benchmark::DoNotOptimize(re.data());
    }
}

void
LightPipes_ComplexMM(benchmark::State &state)
{
    const std::size_t n = benchSize();
    Rng rng(3);
    Field mask = makeMask(n);
    std::vector<Real> ar(n * n), ai(n * n), br(n * n), bi(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        ar[i] = rng.uniform(-1, 1);
        ai[i] = rng.uniform(-1, 1);
        br[i] = mask[i].real();
        bi[i] = mask[i].imag();
    }
    for (auto _ : state) {
        baseline::lpComplexMultiply(&ar, &ai, br, bi);
        benchmark::DoNotOptimize(ar.data());
    }
}

BENCHMARK(LightRidge_FFT2)->Unit(benchmark::kMillisecond);
BENCHMARK(LightPipes_FFT2)->Unit(benchmark::kMillisecond);
BENCHMARK(LightRidge_iFFT2)->Unit(benchmark::kMillisecond);
BENCHMARK(LightPipes_iFFT2)->Unit(benchmark::kMillisecond);
BENCHMARK(LightRidge_ComplexMM)->Unit(benchmark::kMillisecond);
BENCHMARK(LightPipes_ComplexMM)->Unit(benchmark::kMillisecond);

/** Reporter that also accumulates per-kernel means for the summary. */
class SpeedupReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs)
            means_[run.benchmark_name()] = run.GetAdjustedRealTime();
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    void
    Finalize() override
    {
        benchmark::ConsoleReporter::Finalize();
        auto speedup = [&](const char *lr, const char *lp) -> double {
            auto a = means_.find(lr), b = means_.find(lp);
            if (a == means_.end() || b == means_.end() || a->second <= 0)
                return 0;
            return b->second / a->second;
        };
        double s_fft = speedup("LightRidge_FFT2", "LightPipes_FFT2");
        double s_ifft = speedup("LightRidge_iFFT2", "LightPipes_iFFT2");
        double s_mm = speedup("LightRidge_ComplexMM",
                              "LightPipes_ComplexMM");
        // Workload-weighted overall speedup for a 5-layer DONN: 6 FFT2 +
        // 6 iFFT2 + 11 complex MM per forward pass (hops + masks).
        auto t = [&](const char *k) { return means_.count(k) ? means_[k] : 0; };
        double lr_total = 6 * t("LightRidge_FFT2") +
                          6 * t("LightRidge_iFFT2") +
                          11 * t("LightRidge_ComplexMM");
        double lp_total = 6 * t("LightPipes_FFT2") +
                          6 * t("LightPipes_iFFT2") +
                          11 * t("LightPipes_ComplexMM");
        std::printf("\n=== Fig. 8 speedup breakdown (CPU, %zux%zu) ===\n",
                    benchSize(), benchSize());
        std::printf("FFT2: %.1fx   iFFT2: %.1fx   Complex MM: %.1fx   "
                    "overall (5-layer workload): %.1fx\n", s_fft, s_ifft,
                    s_mm, lr_total > 0 ? lp_total / lr_total : 0.0);
        std::printf("paper (CPU, 500^2): FFT2 11x, iFFT2 10x, MM 4x, "
                    "overall 6.4x\n");

        Json artifact;
        artifact["bench"] = Json("fig8_kernels");
        artifact["size"] = Json(benchSize());
        bench::stampProvenance(&artifact);
        Json means;
        for (const auto &[name, ms] : means_)
            means[name] = Json(ms);
        artifact["mean_ms"] = std::move(means);
        artifact["speedup_fft2"] = Json(s_fft);
        artifact["speedup_ifft2"] = Json(s_ifft);
        artifact["speedup_complex_mm"] = Json(s_mm);
        artifact["speedup_overall"] =
            Json(lr_total > 0 ? lp_total / lr_total : 0.0);
        const std::string json_path =
            bench::resultsDir() + "/BENCH_fig8.json";
        if (artifact.save(json_path))
            std::printf("[json] %s\n", json_path.c_str());
    }

  private:
    std::map<std::string, double> means_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    SpeedupReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
