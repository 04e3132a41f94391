#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::int64_t id)
    : tracer_(tracer), index_(-1)
{
    if (!tracer_.enabled_)
        return;
    Span span;
    span.name = name;
    span.parent = tracer_.open_;
    span.id = id;
    span.start_ns = tracer_.nowNs();
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(span);
    tracer_.open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.end_ns = tracer_.nowNs();
    tracer_.open_ = span.parent;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, int parent, std::int64_t id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
            .count();
    span.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    span.parent = parent;
    span.id = id;
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (name == span.name)
            out.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                          1e-3);
    return out;
}

std::vector<std::int64_t>
Tracer::childTimeNs() const
{
    std::vector<std::int64_t> children(spans_.size(), 0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)] +=
                span.end_ns - span.start_ns;
    return children;
}

Tracer::Coverage
Tracer::coverage(const std::string &root,
                 const std::vector<std::string> &grouping) const
{
    const std::vector<std::int64_t> children = childTimeNs();
    // Spans are stored in open order, so a parent precedes its children
    // and one forward pass resolves each span's enclosing root.
    std::vector<int> root_of(spans_.size(), -1);
    std::vector<double> uncovered_ns(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        if (root == span.name)
            root_of[i] = static_cast<int>(i);
        else if (span.parent >= 0)
            root_of[i] = root_of[static_cast<std::size_t>(span.parent)];
        const bool counts =
            root == span.name ||
            std::find(grouping.begin(), grouping.end(), span.name) !=
                grouping.end();
        if (counts && root_of[i] >= 0)
            uncovered_ns[static_cast<std::size_t>(root_of[i])] +=
                static_cast<double>(span.end_ns - span.start_ns -
                                    children[i]);
    }
    Coverage out;
    double root_ns = 0, uncovered_sum = 0;
    std::vector<double> uncovered_us;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (root != spans_[i].name)
            continue;
        root_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        uncovered_sum += uncovered_ns[i];
        uncovered_us.push_back(uncovered_ns[i] * 1e-3);
        ++out.roots;
    }
    out.covered_share = root_ns > 0 ? 1.0 - uncovered_sum / root_ns : 0;
    out.uncovered_us_median = median(std::move(uncovered_us));
    return out;
}

std::vector<double>
Tracer::childSumsUs(const std::string &parent, const std::string &child) const
{
    std::vector<double> sums(spans_.size(), -1);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (parent == spans_[i].name)
            sums[i] = 0;
    for (const Span &span : spans_)
        if (span.parent >= 0 && child == span.name &&
            sums[static_cast<std::size_t>(span.parent)] >= 0)
            sums[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    std::vector<double> out;
    for (double s : sums)
        if (s >= 0)
            out.push_back(s);
    return out;
}

std::vector<Tracer::SelfTime>
Tracer::selfTimes() const
{
    const std::vector<std::int64_t> children = childTimeNs();
    std::map<std::string, SelfTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SelfTime &row = by_name[spans_[i].name];
        const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
        ++row.count;
        row.total_ms += static_cast<double>(dur) * 1e-6;
        row.self_ms += static_cast<double>(dur - children[i]) * 1e-6;
    }
    std::vector<SelfTime> rows;
    for (auto &[name, row] : by_name) {
        row.name = name;
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const SelfTime &a, const SelfTime &b) {
                  return a.self_ms > b.self_ms;
              });
    return rows;
}

std::string
Tracer::selfTimeTable() const
{
    const std::vector<SelfTime> rows = selfTimes();
    double self_sum = 0;
    for (const SelfTime &row : rows)
        self_sum += row.self_ms;
    std::string out = format("%-26s %9s %12s %12s %7s\n", "span", "count",
                             "total_ms", "self_ms", "self%");
    for (const SelfTime &row : rows)
        out += format("%-26s %9zu %12.3f %12.3f %6.1f%%\n", row.name.c_str(),
                      row.count, row.total_ms, row.self_ms,
                      self_sum > 0 ? 100.0 * row.self_ms / self_sum : 0.0);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path, const std::string &workload,
                         std::uint64_t seed) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
        << workload << "\",\"seed\":" << seed << "},\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d,\"id\":%lld}}",
                      i == 0 ? "" : ",\n", span.name,
                      static_cast<double>(span.start_ns) * 1e-3,
                      static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                      i, span.parent, static_cast<long long>(span.id));
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
