/**
 * @file
 * Pieces shared by the workloads: process start time, the model build,
 * the propagation kernel microbenchmarks, and trace output.
 */
#include <cstdio>
#include <random>

#include "api/experiment.hpp"
#include "fft/fft.hpp"
#include "optics/workspace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

void
fillRandom(lightridge::Field &field, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t i = 0; i < field.size(); ++i)
        field[i] = lightridge::Complex(dist(rng), dist(rng));
}

} // namespace

Clock::time_point
processStart()
{
    return g_process_start;
}

lightridge::DonnModel
buildModel(std::size_t grid, std::size_t depth, std::size_t classes,
           std::uint64_t seed)
{
    lightridge::ExperimentSpec spec;
    spec.system.size = grid;
    spec.system.pixel = 36e-6;
    spec.system.distance = 0; // resolve to the half-cone ideal distance
    lightridge::Json layer;
    layer["kind"] = lightridge::Json("diffractive");
    layer["count"] = lightridge::Json(depth);
    spec.layers.push(layer);
    lightridge::Rng rng(seed);
    return lightridge::buildSpecModel(spec, classes, &rng);
}

KernelTimes
measureKernels(const lightridge::Propagator &hop, double min_seconds,
               std::uint64_t seed)
{
    using lightridge::Field;
    std::mt19937_64 rng(seed);
    const std::size_t n = hop.config().grid.n;
    const std::size_t padded = hop.paddedSize();
    lightridge::PropagationWorkspace &workspace =
        lightridge::PropagationWorkspace::threadLocal();

    Field spectrum(padded, padded);
    fillRandom(spectrum, rng);
    lightridge::Fft2d fft(padded, padded);
    Field input(n, n);
    fillRandom(input, rng);
    Field u(n, n);

    std::vector<double> fft_us, prop_us, adj_us;
    // Interleave the three kernels so host noise hits them alike; the
    // first round is warm-up (plans, workspace buffers). Rounds continue
    // until min_seconds have passed, so small grids get more of them.
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0;
         r <= 20 || secondsBetween(start, Clock::now()) < min_seconds; ++r) {
        Clock::time_point a = Clock::now();
        fft.forward(&spectrum);
        fft.inverse(&spectrum);
        Clock::time_point b = Clock::now();
        u = input;
        Clock::time_point c = Clock::now();
        hop.forwardInto(u, u, workspace);
        Clock::time_point d = Clock::now();
        u = input;
        Clock::time_point e = Clock::now();
        hop.adjointInto(u, u, workspace);
        Clock::time_point f = Clock::now();
        if (r == 0)
            continue;
        fft_us.push_back(secondsBetween(a, b) * 1e6);
        prop_us.push_back(secondsBetween(c, d) * 1e6);
        adj_us.push_back(secondsBetween(e, f) * 1e6);
    }
    return {median(fft_us), median(prop_us), median(adj_us)};
}

void
addKernelMetrics(Outcome &out, const KernelTimes &kernels,
                 double fft_calls_per_sample, double step_us_per_sample,
                 const lightridge::TransferFunctionCacheStats &tf)
{
    out.add("fft.fft2_us", kernels.fft2_us, "us");
    out.add("fft.calls_per_sample", fft_calls_per_sample, "count");
    out.add("fft.share",
            step_us_per_sample > 0
                ? fft_calls_per_sample * kernels.fft2_us / step_us_per_sample
                : 0.0,
            "ratio");
    out.add("optics.propagate_us", kernels.propagate_us, "us");
    out.add("optics.adjoint_us", kernels.adjoint_us, "us");
    out.add("optics.nonfft_us", kernels.propagate_us - kernels.fft2_us, "us");
    out.add("optics.tf_cache.hits", static_cast<double>(tf.hits), "count");
    out.add("optics.tf_cache.misses", static_cast<double>(tf.misses),
            "count");
}

void
finishTrace(Outcome &out, const Tracer &tracer, const Options &options)
{
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (tracer.writeChromeTrace(path, options.workload, options.seed))
        out.notes.push_back(format("trace: %s (%zu spans, Chrome "
                                   "trace-event JSON)",
                                   path.c_str(), tracer.spans().size()));
    else
        out.notes.push_back("trace: could not write " + path);
    out.notes.push_back("per-span self time:");
    out.notes.push_back(tracer.selfTimeTable());
}

} // namespace perfbench
