/**
 * @file
 * Shared plumbing of the end-to-end benchmark: options, order
 * statistics, process memory, and the metric report every workload
 * fills in and main() prints.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".bench_build/runs"; ///< packed shards, traces
    double accuracy_floor = 0.5;               ///< train workloads only
};

/**
 * Independent seed for one input stream of a run (splitmix64 of the
 * run seed and a stream tag): every generated input derives from
 * --seed through this.
 */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Median (mean of the two middle values for even sizes); 0 if empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank quantile q in [0, 1]: the smallest sample with at least
 * a q share of the samples at or below it; 0 if empty.
 */
double quantile(std::vector<double> values, double q);

/** Peak resident set size of this process in MiB (getrusage). */
double peakRssMb();

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What a workload hands back to main(): the output-check tally and the
 * metrics of the selected mode (end-to-end when untraced, per-layer
 * when traced). `notes` are human-readable lines printed before the
 * result (metrics printed but not gated, n/a layers, sample counts).
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record one checked operation; returns `ok`. */
    bool
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
        return ok;
    }
};

/** Name and unit of every metric the benchmark reports. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs), in report order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics (traced runs), in report order. */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Put `out.metrics` in catalog order. Catalog metrics a workload does
 * not exercise are reported as 0 and listed in a note; a metric outside
 * the catalog is a programming error and throws.
 */
void finalizeMetrics(Outcome &out, const std::vector<MetricSpec> &catalog);

/** printf-style std::string formatting for the note lines. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Hardware threads of this host (at least 1). */
std::size_t hardwareThreads();

} // namespace perfbench
