/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * Spans are recorded around the benchmark's own calls into the
 * library's public functions (the library itself carries no tracing).
 * Each span has a name, start and end on the steady clock, the span
 * that encloses it, and a sample or request id. Recording is
 * single-threaded: the traced replays run on the calling thread. When
 * disabled, opening a span costs one branch, which is what the tracing
 * overhead figure compares against.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr; ///< string literal
        std::int64_t start_ns = 0;  ///< since the tracer's epoch
        std::int64_t end_ns = 0;
        int parent = -1;            ///< index into spans(), -1 = root
        std::int64_t id = -1;       ///< sample / request id, -1 = none
    };

    /** RAII span: closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::int64_t id);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    explicit Tracer(bool enabled = false);

    /** Open a span (no-op when disabled). */
    Scope span(const char *name, std::int64_t id = -1)
    {
        return Scope(*this, name, id);
    }

    /**
     * Record an already-timed span (e.g. a request measured by the load
     * generator) with an explicit parent.
     */
    int record(const char *name, Clock::time_point start,
               Clock::time_point end, int parent = -1,
               std::int64_t id = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in microseconds of every span with this name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /**
     * How much of each span named `root` the layer spans under it
     * explain. The uncovered remainder of one root is its own self time
     * plus the self time of the `grouping` spans below it (spans that
     * only group layer calls, such as one training sample).
     */
    struct Coverage
    {
        double covered_share = 0;       ///< 1 - uncovered / root time
        double uncovered_us_median = 0; ///< per root span
        std::size_t roots = 0;
    };
    Coverage coverage(const std::string &root,
                      const std::vector<std::string> &grouping) const;

    /**
     * For every span named `parent`, the summed duration (us) of its
     * direct children named `child` (e.g. all layer forwards of one
     * sample).
     */
    std::vector<double> childSumsUs(const std::string &parent,
                                    const std::string &child) const;

    /** Per-name aggregate: count, total time and self time. */
    struct SelfTime
    {
        std::string name;
        std::size_t count = 0;
        double total_ms = 0;
        double self_ms = 0;
    };
    std::vector<SelfTime> selfTimes() const;

    /** Text table of selfTimes(), sorted by self time. */
    std::string selfTimeTable() const;

    /**
     * Write Chrome trace-event JSON (complete "X" events, microsecond
     * timestamps; opens in Perfetto / chrome://tracing).
     * @return false when the file could not be written
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &workload,
                          std::uint64_t seed) const;

  private:
    std::int64_t nowNs() const;
    /** Summed duration of each span's direct children. */
    std::vector<std::int64_t> childTimeNs() const;

    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    int open_ = -1; ///< innermost open span
};

} // namespace perfbench
