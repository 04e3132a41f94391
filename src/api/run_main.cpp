/**
 * @file
 * lightridge_run: execute declarative JSON experiment specs end to end
 * and emit JSON results reports.
 *
 *   lightridge_run <spec.json> [spec2.json ...]
 *                  [--out=results.json] [--out-dir=DIR]
 *                  [--save-model=ckpt.json] [--dump-spec]
 *                  [--workers=N] [--quiet] [--robustness-sweep]
 *
 * Single-spec runs behave as before (--out names the report). Passing
 * several specs (listed before any flags) enters batch mode: the specs
 * run back to back in one process, so the process-wide FFT-plan and
 * transfer-function caches are shared across every experiment, and each
 * report lands in --out-dir (default ".") as <name>_results.json.
 * --save-model checkpoints the trained model (single-spec only) — the
 * handoff point to lightridge_serve. --robustness-sweep additionally
 * measures the trained model's accuracy-vs-misalignment curves (lateral,
 * axial, phase, detector noise; grid scaled to the system geometry) and
 * adds them to the report's "robustness" block (classification only).
 *
 * The spec format is documented in api/experiment.hpp (see
 * examples/specs/ for runnable samples). A spec's "dataset" key may be
 * an object ({"kind": "sharded", "manifest": ...}) to train out of core
 * from a sharded on-disk dataset written by lightridge_data; manifest
 * validation failures (missing shard, checksum mismatch, future format
 * version) exit 2 naming the offending shard. Exit codes: 0 success,
 * 1 usage error, 2 spec/parse/run error, 3 training diverged (a batch
 * produced a non-finite loss or gradient; the message names the epoch
 * and batch). A batch run exits with the highest code of its specs.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "utils/cli.hpp"

using namespace lightridge;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: lightridge_run <spec.json> [spec2.json ...]\n"
        "                      [--out=results.json] [--out-dir=DIR]\n"
        "                      [--save-model=ckpt.json] [--dump-spec]\n"
        "                      [--workers=N] [--quiet]\n"
        "                      [--robustness-sweep]\n"
        "\n"
        "Executes declarative DONN experiment specs (task: "
        "classification,\nsegmentation, or rgb) through the Task/Session "
        "engine and writes\nJSON results reports. Several specs run in "
        "one process sharing\nthe propagation caches (batch mode).\n"
        "--robustness-sweep adds accuracy-vs-misalignment curves to the\n"
        "report (classification specs only).\n");
}

/** Run one spec: train, report, optionally checkpoint. 0 on success,
 *  otherwise the process exit code (see the file comment). */
int
runOne(const ExperimentSpec &spec, const std::string &out_path,
       const std::string &save_model, bool quiet, bool sweep)
{
    std::printf("[lightridge_run] %s: task=%s dataset=%s size=%zu "
                "epochs=%d workers=%zu\n",
                spec.name.c_str(), spec.task.c_str(), spec.dataset.c_str(),
                spec.system.size, spec.train.epochs, spec.train.workers);

    Session::Callback progress;
    if (!quiet) {
        progress = [](const EpochStats &stats, Session &session) {
            std::printf("[epoch %d] loss=%.5f train_acc=%.3f test=%.3f "
                        "top3=%.3f (%.2fs)\n",
                        stats.epoch, stats.train_loss, stats.train_acc,
                        stats.test_acc, stats.test_top3, stats.seconds);
            (void)session;
            return true;
        };
    }

    ExperimentResult result;
    try {
        RobustnessSweepConfig sweep_config;
        if (sweep)
            sweep_config =
                RobustnessSweepConfig::defaults(spec.resolvedSystem());
        result = runExperiment(spec, progress, save_model,
                               sweep ? &sweep_config : nullptr);
    } catch (const TrainingDivergedError &e) {
        std::fprintf(stderr, "lightridge_run: %s: %s\n", spec.name.c_str(),
                     e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lightridge_run: %s: %s\n", spec.name.c_str(),
                     e.what());
        return 2;
    }

    Json report = result.report(spec);
    if (!report.save(out_path)) {
        std::fprintf(stderr, "lightridge_run: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }

    if (spec.task == "segmentation") {
        std::printf("[done] iou=%.3f mse=%.4f workers=%zu (%.1fs) -> %s\n",
                    result.final_metrics.primary, result.secondary,
                    result.workers_used, result.seconds, out_path.c_str());
    } else {
        std::printf("[done] accuracy=%.3f top3=%.3f chance=%.3f "
                    "workers=%zu (%.1fs) -> %s\n",
                    result.final_metrics.primary, result.final_metrics.top3,
                    result.num_classes > 0
                        ? 1.0 / static_cast<double>(result.num_classes)
                        : 0.0,
                    result.workers_used, result.seconds, out_path.c_str());
    }
    if (sweep) {
        std::printf("[robustness] clean=%.3f lateral(worst)=%.3f "
                    "axial(worst)=%.3f phase(worst)=%.3f "
                    "detector(worst)=%.3f\n",
                    result.robustness.clean_accuracy,
                    result.robustness.worstAccuracy("lateral"),
                    result.robustness.worstAccuracy("axial"),
                    result.robustness.worstAccuracy("phase"),
                    result.robustness.worstAccuracy("detector"));
    }
    if (!save_model.empty())
        std::printf("[model] -> %s\n", save_model.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Spec paths are the leading positional arguments (before any flag).
    std::vector<std::string> spec_paths;
    int i = 1;
    while (i < argc && argv[i][0] != '-')
        spec_paths.push_back(argv[i++]);
    if (spec_paths.empty()) {
        usage();
        return 1;
    }
    // Reject bare tokens after the flag region: CliArgs would either
    // drop them or swallow them as a "--key value" flag value, and a
    // batch run would quietly skip those specs (e.g. "--quiet b.json"
    // eats b.json). Flags therefore use the --key=value form here.
    for (int j = i; j < argc; ++j) {
        if (std::strncmp(argv[j], "--", 2) == 0)
            continue;
        std::fprintf(stderr,
                     "lightridge_run: unexpected argument \"%s\" after "
                     "flags (list every spec file before any flag, and "
                     "write flags as --key=value)\n",
                     argv[j]);
        return 1;
    }
    CliArgs args(argc, argv);

    std::vector<ExperimentSpec> specs;
    for (const std::string &path : spec_paths) {
        try {
            specs.push_back(ExperimentSpec::load(path));
        } catch (const JsonError &e) {
            std::fprintf(stderr, "lightridge_run: bad spec %s: %s\n",
                         path.c_str(), e.what());
            return 2;
        }
    }

    if (args.has("workers"))
        for (ExperimentSpec &spec : specs)
            spec.train.workers =
                static_cast<std::size_t>(args.getInt("workers", 0));
    const bool quiet = args.getBool("quiet", false);
    const bool sweep = args.getBool("robustness-sweep", false);

    if (args.has("dump-spec")) {
        for (const ExperimentSpec &spec : specs)
            std::printf("%s\n", spec.toJson().pretty().c_str());
        return 0;
    }

    const std::string save_model = args.getString("save-model", "");
    if (!save_model.empty() && specs.size() > 1) {
        std::fprintf(stderr, "lightridge_run: --save-model needs a single "
                             "spec\n");
        return 1;
    }
    if (args.has("out") && specs.size() > 1) {
        std::fprintf(stderr, "lightridge_run: --out needs a single spec; "
                             "use --out-dir for batch runs\n");
        return 1;
    }

    // Batch-mode report paths derive from spec names; duplicate names
    // (the same spec swept at several settings) get an index suffix so
    // no report clobbers another.
    const std::string out_dir = args.getString("out-dir", ".");
    std::map<std::string, int> name_uses;
    for (const ExperimentSpec &spec : specs)
        ++name_uses[spec.name];
    std::map<std::string, int> name_seen;
    int failures = 0;
    int exit_code = 0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        std::string stem = specs[s].name;
        if (specs.size() > 1 && name_uses[stem] > 1) {
            stem.push_back('_');
            stem.append(std::to_string(++name_seen[specs[s].name]));
        }
        std::string out_path =
            specs.size() == 1
                ? args.getString("out", stem + "_results.json")
                : out_dir + "/" + stem + "_results.json";
        const int code =
            runOne(specs[s], out_path, save_model, quiet, sweep);
        failures += code != 0;
        exit_code = std::max(exit_code, code);
    }

    if (specs.size() > 1)
        std::printf("[batch] %zu specs, %d failed (shared propagation "
                    "caches)\n",
                    specs.size(), failures);
    return exit_code;
}
