/**
 * @file
 * Shared helpers for the benchmark harnesses: banner printing, results
 * directory management, and the quick/full scale switch.
 */
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_build_info.hpp"
#include "utils/cli.hpp"
#include "utils/csv.hpp"
#include "utils/json.hpp"

namespace lightridge {
namespace bench {

/** Directory all bench CSV artifacts land in. */
inline std::string
resultsDir()
{
    const std::string dir = "bench_results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

/** Standard banner: name, paper anchor, scale mode. */
inline void
banner(const char *name, const char *anchor)
{
    std::printf("==============================================================\n");
    std::printf("%s  (%s)\n", name, anchor);
    std::printf("scale: %s   (set LR_BENCH_FULL=1 for paper-scale runs)\n",
                benchFullScale() ? "FULL (paper)" : "QUICK (CI)");
    std::printf("==============================================================\n");
}

/**
 * Stamp where a BENCH_*.json artifact came from: the git revision the
 * bench was built from ("-dirty" when tracked files differed from it)
 * and the compiler, build type and flags.
 */
inline void
stampProvenance(Json *artifact)
{
    (*artifact)["git_sha"] = Json(LIGHTRIDGE_BENCH_GIT_SHA);
    (*artifact)["build_flags"] = Json(LIGHTRIDGE_BENCH_BUILD_FLAGS);
}

/** Save a CSV and announce where it went. */
inline void
saveCsv(const CsvWriter &csv, const std::string &stem)
{
    std::string path = resultsDir() + "/" + stem + ".csv";
    if (csv.save(path))
        std::printf("[csv] %s\n", path.c_str());
}

} // namespace bench
} // namespace lightridge
