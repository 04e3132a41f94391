/**
 * @file
 * Workload entry points and the microbenchmarks they share.
 */
#pragma once

#include <memory>
#include <string>

#include "common.hpp"
#include "core/model.hpp"
#include "optics/propagator.hpp"
#include "trace.hpp"

namespace perfbench {

/** train-mem64 and train-shard96 (Options::workload selects). */
Outcome runTrainWorkload(const Options &options);

/** serve-http32. */
Outcome runServeWorkload(const Options &options);

/** Steady-clock time of process start (static initialization). */
Clock::time_point processStart();

/**
 * The benchmark's classification model, built through the
 * experiment-spec API: `depth` raw diffractive layers on a `grid`^2
 * system (36 um pixels, half-cone ideal distance) and a detector grid
 * of `classes` regions, phases initialized from `seed`.
 */
lightridge::DonnModel buildModel(std::size_t grid, std::size_t depth,
                                 std::size_t classes, std::uint64_t seed);

/**
 * Per-call medians of the propagation kernels at one hop's geometry:
 * the Fft2d forward+inverse pair on the padded grid, and the hop's
 * forwardInto / adjointInto, timed for at least `min_seconds`.
 */
struct KernelTimes
{
    double fft2_us = 0;
    double propagate_us = 0;
    double adjoint_us = 0;
};
KernelTimes measureKernels(const lightridge::Propagator &hop,
                           double min_seconds, std::uint64_t seed);

/** Add the fft.* / optics.* per-layer metrics to a traced outcome. */
void addKernelMetrics(Outcome &out, const KernelTimes &kernels,
                      double fft_calls_per_sample, double step_us_per_sample,
                      const lightridge::TransferFunctionCacheStats &tf);

/** Write the Chrome trace and append the self-time table to the notes. */
void finishTrace(Outcome &out, const Tracer &tracer, const Options &options);

} // namespace perfbench
