/**
 * @file
 * End-to-end DONN benchmark program (donn_bench).
 *
 *   donn_bench --workload <train-mem64|train-shard96|serve-http32>
 *              --seed <n> --seconds <s> --trace <0|1>
 *              [--out-dir <dir>] [--accuracy-floor <acc>]
 *
 * Untraced (--trace 0) runs measure the end-to-end metrics; traced runs
 * replay the same public calls under spans and report per-layer metrics,
 * a self-time table and a Chrome trace file. Human-readable lines come
 * first; the last line of stdout is the JSON result:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "donn_bench: %s\nusage: donn_bench --workload "
                 "<train-mem64|train-shard96|serve-http32> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--accuracy-floor <acc>]\n",
                 why);
    return 2;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    return format("%.17g", v);
}

void
printResult(const Outcome &outcome)
{
    std::string line = format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false",
        static_cast<unsigned long long>(outcome.attempted),
        static_cast<unsigned long long>(outcome.failed));
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        line += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", m.name.c_str(),
                       jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(__GLIBC__)
    // One malloc arena, set before any thread starts. With glibc's
    // per-thread arenas the peak RSS of the multi-threaded workloads
    // depends on which arena each thread lands in (train-shard96 read
    // 25-29 MB from run to run; 22.3-22.5 MB with one arena).
    mallopt(M_ARENA_MAX, 1);
#endif
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                return usage("--seed takes an unsigned integer");
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(options.seconds > 0))
                return usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return usage("--trace takes 0 or 1");
            options.trace = value[0] == '1';
        } else if (arg == "--out-dir") {
            options.out_dir = value;
        } else if (arg == "--accuracy-floor") {
            options.accuracy_floor = std::strtod(value, &end);
            if (*end != '\0')
                return usage("--accuracy-floor takes a number");
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }

    Outcome outcome;
    try {
        std::filesystem::create_directories(options.out_dir);
        std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d  "
                    "hw_threads: %zu\n",
                    options.workload.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.seconds, options.trace ? 1 : 0,
                    hardwareThreads());
        std::fflush(stdout);
        if (options.workload == "train-mem64" ||
            options.workload == "train-shard96")
            outcome = runTrainWorkload(options);
        else if (options.workload == "serve-http32")
            outcome = runServeWorkload(options);
        else
            return usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "donn_bench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    try {
        finalizeMetrics(outcome, options.trace ? perLayerMetrics()
                                               : endToEndMetrics());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "donn_bench: %s\n", e.what());
        return 1;
    }
    for (const std::string &note : outcome.notes)
        std::printf("%s\n", note.c_str());
    std::printf("ops: attempted=%llu failed=%llu error_rate=%.6g\n",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                outcome.attempted > 0
                    ? static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted)
                    : 0.0);
    printResult(outcome);
    return 0;
}
