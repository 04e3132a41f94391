#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    return 0.5 * (lower + upper);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t at =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(at, values.size() - 1)];
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"work_ms", "ms"},
        {"infer_ms", "ms"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"fft.fft2_us", "us"},
        {"fft.calls_per_sample", "count"},
        {"fft.share", "ratio"},
        {"optics.propagate_us", "us"},
        {"optics.adjoint_us", "us"},
        {"optics.nonfft_us", "us"},
        {"optics.tf_cache.hits", "count"},
        {"optics.tf_cache.misses", "count"},
        {"core.encode_us", "us"},
        {"core.layer_fwd_us", "us"},
        {"core.detector_us", "us"},
        {"core.loss_us", "us"},
        {"core.backward_us", "us"},
        {"core.adam_us", "us"},
        {"core.infer_us", "us"},
        {"core.parallel_eff", "ratio"},
        {"core.calibrate_s", "s"},
        {"data.decode_ms", "ms"},
        {"data.bytes_read", "bytes"},
        {"data.stage_wait_s", "s"},
        {"data.pack_s", "s"},
        {"serve.parse_us", "us"},
        {"serve.render_us", "us"},
        {"serve.engine_ms.p50", "ms"},
        {"serve.engine_ms.p99", "ms"},
        {"serve.transport_ms.p50", "ms"},
        {"serve.transport_ms.p99", "ms"},
        {"serve.batch_mean", "count"},
        {"serve.shed", "count"},
        {"serve.expired", "count"},
        {"http.parse_errors", "count"},
        {"loadgen.late_p99_ms", "ms"},
        {"trace.step_coverage", "ratio"},
        {"trace.uncovered_us", "us"},
        {"trace.overhead", "ratio"},
    };
    return specs;
}

void
finalizeMetrics(Outcome &out, const std::vector<MetricSpec> &catalog)
{
    std::vector<Metric> ordered;
    std::string absent;
    for (const MetricSpec &spec : catalog) {
        auto it = std::find_if(
            out.metrics.begin(), out.metrics.end(),
            [&](const Metric &m) { return m.name == spec.name; });
        if (it == out.metrics.end()) {
            ordered.push_back({spec.name, 0.0, spec.unit});
            absent += absent.empty() ? spec.name : std::string(" ") + spec.name;
            continue;
        }
        if (it->unit != spec.unit)
            throw std::logic_error("metric " + it->name + " reported in " +
                                   it->unit + ", catalog says " + spec.unit);
        ordered.push_back(*it);
    }
    for (const Metric &m : out.metrics)
        if (std::none_of(catalog.begin(), catalog.end(),
                         [&](const MetricSpec &s) { return m.name == s.name; }))
            throw std::logic_error("metric outside the catalog: " + m.name);
    if (!absent.empty())
        out.notes.push_back("not exercised by this workload (reported as 0): " +
                            absent);
    out.metrics = std::move(ordered);
}

std::string
format(const char *fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

std::size_t
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench
