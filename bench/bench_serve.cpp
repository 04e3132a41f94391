/**
 * @file
 * Serving-engine benchmark: dynamic micro-batching versus sequential
 * per-request dispatch, with bitwise parity against direct inference.
 *
 * Emits bench_results/BENCH_serve.json with three sections:
 *
 *  - "throughput": requests/sec of the micro-batched engine (submit the
 *    whole stream asynchronously, gather) versus one-request-at-a-time
 *    dispatch through the same engine, per model size. Gate: batched
 *    >= 2x sequential — conditioned on >= 4 hardware threads per the
 *    repo's hardware-conditioning convention (a single-CPU host has no
 *    parallelism for the batcher to exploit; it reports without failing).
 *  - "parity": engine responses are bitwise-equal to direct
 *    `detector().readout(model.inferField(model.encode(frame)))` calls,
 *    for every request, both dispatch modes, both registered models.
 *    Unconditional gate.
 *  - "alloc": steady-state Field heap allocations of a batched burst
 *    (only meaningful under LIGHTRIDGE_ALLOC_STATS). One shared
 *    DonnModel instance serves every worker: zero allocations means no
 *    per-request clones and no per-request propagation buffers.
 *    Gate applies only when the counter is compiled in.
 *  - "socket": closed-loop load through the HTTP front end on loopback —
 *    K keep-alive clients drive the full request stream through
 *    POST /v1/models/<name>/infer and every JSON logit must be
 *    bitwise-equal to direct inference (unconditional gate; %.17g JSON
 *    numbers round-trip doubles exactly). Sustained RPS and client-side
 *    p50/p99 are recorded; the bounded-p99 gate is conditioned on >= 4
 *    hardware threads (single-CPU hosts report without failing).
 *  - "overload": deterministic 4x admission overload (quota 1, engine
 *    paused) must degrade gracefully — excess requests answered
 *    immediately with 503 + Retry-After while /healthz stays live, the
 *    survivor served after resume. Unconditional gate.
 *  - "ensemble": fan-out throughput of a 2-member ensemble over both
 *    registered models, with every fused response bitwise-equal to
 *    offline fuseLogits over the members' direct inference outputs
 *    (unconditional gate). Records the engine's ensemble/fan-out
 *    counters so the artifact exposes the amplification factor.
 *
 * The artifact's "execution" block records the resolved acceptor/IO
 * thread and engine worker counts the run actually used.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/model.hpp"
#include "data/synth_digits.hpp"
#include "optics/laser.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "utils/json.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

namespace {

DonnModel
makeServeModel(std::size_t n, std::size_t depth, uint64_t seed)
{
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    Rng rng(seed);
    return ModelBuilder(spec, Laser{})
        .diffractiveLayers(depth, 1.0, &rng)
        .detectorGrid(10, std::max<std::size_t>(n / 8, 1))
        .build();
}

/** Direct single-request reference path the engine must match bitwise. */
std::vector<Real>
directLogits(const DonnModel &model, const RealMap &frame)
{
    Field u = model.inferField(model.encode(frame));
    return model.detector().readout(u);
}

double
medianMs(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

double
percentileMs(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t at = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1));
    return samples[at];
}

Json
imageJson(const RealMap &frame)
{
    Json image;
    image["rows"] = Json(frame.rows());
    image["cols"] = Json(frame.cols());
    Json data;
    for (std::size_t i = 0; i < frame.size(); ++i)
        data.push(Json(frame[i]));
    image["data"] = std::move(data);
    return image;
}

} // namespace

int
main()
{
    bench::banner("Serving engine: micro-batching vs sequential dispatch",
                  "ISSUE 5 / ROADMAP scale: multi-model serving front end");

    const std::size_t hw_threads = ThreadPool::global().workerCount();
    const std::size_t depth = 3;
    const std::size_t requests = scaled<std::size_t>(48, 192);
    const std::vector<std::size_t> sizes{32, 48};

    // Request frames: deterministic synthetic digits at native 28x28.
    ClassDataset frames = makeSynthDigits(requests, 11);

    ModelRegistry registry;
    for (std::size_t n : sizes)
        registry.registerModel("digits" + std::to_string(n),
                               makeServeModel(n, depth, 7 + n));

    CsvWriter csv;
    csv.header({"size", "requests", "sequential_ms", "batched_ms",
                "speedup", "batched_rps", "mean_batch"});
    std::printf("\n%zu requests per model, depth=%zu, hw_threads=%zu\n",
                requests, depth, hw_threads);
    std::printf("%-8s %14s %12s %9s %12s %11s\n", "size", "sequential_ms",
                "batched_ms", "speedup", "batched_rps", "mean_batch");

    Json throughput_rows;
    bool parity_ok = true;
    Real best_speedup = 0;
    std::uint64_t steady_allocs = 0;
    bool alloc_measured = false;
    double direct_ms_per_request = 0; // smallest model, sequential path

    for (std::size_t n : sizes) {
        const std::string name = "digits" + std::to_string(n);
        std::shared_ptr<const DonnModel> model = registry.acquire(name);

        // Reference logits for every frame (also warms the FFT-plan and
        // transfer-function caches the engine shares).
        std::vector<std::vector<Real>> direct(requests);
        for (std::size_t i = 0; i < requests; ++i)
            direct[i] = directLogits(*model, frames.images[i]);

        BatchingConfig batching;
        batching.max_batch = 32;
        InferenceEngine engine(registry, batching);

        auto makeRequest = [&](std::size_t i) {
            InferRequest request;
            request.model = name;
            request.image = frames.images[i];
            request.id = i;
            return request;
        };

        // Warm both dispatch paths (worker arenas, modulation tables).
        for (std::size_t i = 0; i < std::min<std::size_t>(requests, 8); ++i)
            parity_ok = parity_ok &&
                        engine.inferNow(makeRequest(i)).logits == direct[i];

        auto runSequential = [&] {
            for (std::size_t i = 0; i < requests; ++i) {
                InferResponse response = engine.inferNow(makeRequest(i));
                parity_ok = parity_ok && response.logits == direct[i];
            }
        };
        double batched_mean_batch = 0;
        auto runBatched = [&] {
            std::vector<std::future<InferResponse>> futures;
            futures.reserve(requests);
            for (std::size_t i = 0; i < requests; ++i)
                futures.push_back(engine.submit(makeRequest(i)));
            double batch_sum = 0;
            for (std::size_t i = 0; i < requests; ++i) {
                InferResponse response = futures[i].get();
                parity_ok = parity_ok && response.logits == direct[i];
                batch_sum += static_cast<double>(response.batch_size);
            }
            batched_mean_batch = batch_sum / requests;
        };

        // Steady-state allocation audit on the warmed engine: a batched
        // burst must lease every buffer from the per-thread arenas and
        // never clone the shared model (which would rebuild modulation
        // tables). Only meaningful when the counter is compiled in.
        if (fieldAllocStatsEnabled() && n == sizes.front()) {
            runBatched();
            engine.drain();
            resetFieldAllocCount();
            runBatched();
            engine.drain();
            steady_allocs = fieldAllocCount();
            alloc_measured = true;
        }

        const int reps = 3;
        std::vector<double> seq_ms, batch_ms;
        for (int r = 0; r < reps; ++r) {
            WallTimer t1;
            runSequential();
            seq_ms.push_back(t1.milliseconds());
            WallTimer t2;
            runBatched();
            batch_ms.push_back(t2.milliseconds());
        }
        const double seq = medianMs(seq_ms);
        const double bat = medianMs(batch_ms);
        if (n == sizes.front())
            direct_ms_per_request = seq / static_cast<double>(requests);
        const double speedup = seq / bat;
        const double rps = 1e3 * static_cast<double>(requests) / bat;
        best_speedup = std::max<Real>(best_speedup, speedup);
        std::printf("%-8zu %14.2f %12.2f %8.2fx %12.1f %11.1f\n", n, seq,
                    bat, speedup, rps, batched_mean_batch);
        csv.rowNumeric({static_cast<double>(n),
                        static_cast<double>(requests), seq, bat, speedup,
                        rps, batched_mean_batch});
        Json row;
        row["size"] = Json(n);
        row["requests"] = Json(requests);
        row["sequential_ms"] = Json(seq);
        row["batched_ms"] = Json(bat);
        row["speedup"] = Json(speedup);
        row["batched_rps"] = Json(rps);
        row["mean_batch"] = Json(batched_mean_batch);
        throughput_rows.push(std::move(row));
    }

    // ---- socket section: closed-loop load through the HTTP front end ---
    const std::string socket_model = "digits" + std::to_string(sizes.front());
    std::shared_ptr<const DonnModel> socket_ref =
        registry.acquire(socket_model);
    BatchingConfig socket_batching;
    socket_batching.max_batch = 32;
    socket_batching.max_queued_per_model = 256;
    InferenceEngine socket_engine(registry, socket_batching);
    ServingService service(registry, socket_engine);
    HttpServer server(HttpServerConfig{},
                      [&service](HttpRequest &&request) {
                          return service.handle(std::move(request));
                      });
    server.start();

    const std::size_t socket_clients =
        std::min<std::size_t>(4, std::max<std::size_t>(1, hw_threads));
    const std::size_t socket_requests =
        requests - requests % socket_clients; // equal share per client
    std::vector<std::string> socket_bodies(socket_requests);
    for (std::size_t i = 0; i < socket_requests; ++i) {
        Json body;
        body["id"] = Json(i + 1);
        body["image"] = imageJson(frames.images[i]);
        socket_bodies[i] = body.dump();
    }

    std::atomic<std::size_t> socket_mismatches{0};
    std::atomic<std::size_t> socket_failures{0};
    std::vector<std::vector<double>> client_latency(socket_clients);
    const std::string route = "/v1/models/" + socket_model + "/infer";

    WallTimer socket_wall;
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < socket_clients; ++c) {
            clients.emplace_back([&, c] {
                HttpClient client("127.0.0.1", server.port());
                const std::size_t share = socket_requests / socket_clients;
                client_latency[c].reserve(share);
                for (std::size_t k = 0; k < share; ++k) {
                    const std::size_t i = c * share + k;
                    WallTimer timer;
                    const HttpResponse response =
                        client.request("POST", route, socket_bodies[i]);
                    client_latency[c].push_back(timer.milliseconds());
                    if (response.status != 200) {
                        socket_failures.fetch_add(1);
                        continue;
                    }
                    const Json j = Json::parse(response.body);
                    const Json::Array &logits = j.at("logits").asArray();
                    const std::vector<Real> expected =
                        directLogits(*socket_ref, frames.images[i]);
                    bool same = logits.size() == expected.size();
                    for (std::size_t v = 0; same && v < expected.size();
                         ++v)
                        same = logits[v].asNumber() == expected[v];
                    if (!same)
                        socket_mismatches.fetch_add(1);
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    const double socket_wall_ms = socket_wall.milliseconds();
    std::vector<double> all_latency;
    for (const std::vector<double> &per_client : client_latency)
        all_latency.insert(all_latency.end(), per_client.begin(),
                           per_client.end());
    const double socket_rps =
        socket_wall_ms > 0
            ? 1e3 * static_cast<double>(socket_requests) / socket_wall_ms
            : 0.0;
    const double socket_p50 = percentileMs(all_latency, 0.50);
    const double socket_p99 = percentileMs(all_latency, 0.99);
    const bool socket_parity_ok =
        socket_mismatches.load() == 0 && socket_failures.load() == 0;
    std::printf("\nsocket: %zu requests, %zu clients, %zu io threads -> "
                "%.1f rps, p50 %.2f ms, p99 %.2f ms\n",
                socket_requests, socket_clients, server.ioThreads(),
                socket_rps, socket_p50, socket_p99);
    std::printf("socket parity (HTTP JSON logits == direct): %s\n",
                socket_parity_ok ? "yes" : "NO");

    // ---- overload section: deterministic 4x admission overload --------
    // Quota 1 + paused engine: of 4 concurrent requests exactly one is
    // admitted; the rest shed immediately as 503 + Retry-After while the
    // server stays live. Resume serves the survivor.
    socket_engine.setModelQuota(socket_model, 1);
    socket_engine.pause();
    const std::size_t overload_clients = 4;
    std::atomic<std::size_t> overload_ok{0};
    std::atomic<std::size_t> overload_shed{0};
    std::atomic<std::size_t> overload_retry_after{0};
    std::atomic<std::size_t> overload_other{0};
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < overload_clients; ++c) {
            clients.emplace_back([&, c] {
                HttpClient client("127.0.0.1", server.port());
                const HttpResponse response =
                    client.request("POST", route, socket_bodies[c]);
                if (response.status == 200) {
                    overload_ok.fetch_add(1);
                } else if (response.status == 503) {
                    overload_shed.fetch_add(1);
                    if (response.headers.count("retry-after"))
                        overload_retry_after.fetch_add(1);
                } else {
                    overload_other.fetch_add(1);
                }
            });
        }
        // Health stays live mid-overload; resume once the survivor is
        // parked and every other client has been shed.
        HttpClient probe("127.0.0.1", server.port());
        bool healthz_live = false;
        for (int i = 0; i < 5000; ++i) {
            healthz_live =
                probe.request("GET", "/healthz").status == 200;
            if (socket_engine.metrics().queueDepth() == 1 &&
                socket_engine.stats().shed >= overload_clients - 1)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        socket_engine.resume();
        for (std::thread &t : clients)
            t.join();
        if (!healthz_live)
            overload_other.fetch_add(1);
    }
    const bool overload_pass = overload_ok.load() == 1 &&
                               overload_shed.load() ==
                                   overload_clients - 1 &&
                               overload_retry_after.load() ==
                                   overload_shed.load() &&
                               overload_other.load() == 0;
    std::printf("overload (4x, quota 1): %zu served, %zu shed (503, "
                "Retry-After on %zu) -> %s\n",
                overload_ok.load(), overload_shed.load(),
                overload_retry_after.load(),
                overload_pass ? "graceful" : "NOT GRACEFUL");
    const std::size_t server_io_threads = server.ioThreads();
    server.stop();
    socket_engine.drain();

    // ---- ensemble section: fan-out over both models, fused bitwise ----
    EnsembleSpec ensemble_spec;
    ensemble_spec.name = "digits_duo";
    for (std::size_t n : sizes)
        ensemble_spec.members.push_back("digits" + std::to_string(n));
    ensemble_spec.fusion = FusionRule::MeanLogits;
    registry.registerEnsemble(ensemble_spec);
    std::vector<std::shared_ptr<const DonnModel>> duo_members;
    for (std::size_t n : sizes)
        duo_members.push_back(registry.acquire("digits" + std::to_string(n)));

    BatchingConfig ensemble_batching;
    ensemble_batching.max_batch = 32;
    InferenceEngine ensemble_engine(registry, ensemble_batching);
    auto ensembleRequest = [&](std::size_t i) {
        InferRequest request;
        request.model = "digits_duo";
        request.image = frames.images[i];
        request.id = i;
        return request;
    };
    // Warm the fan-out path, then time one full asynchronous burst.
    for (std::size_t i = 0; i < std::min<std::size_t>(requests, 8); ++i)
        ensemble_engine.inferNow(ensembleRequest(i));
    bool ensemble_parity_ok = true;
    WallTimer ensemble_wall;
    {
        std::vector<std::future<InferResponse>> futures;
        futures.reserve(requests);
        for (std::size_t i = 0; i < requests; ++i)
            futures.push_back(ensemble_engine.submit(ensembleRequest(i)));
        for (std::size_t i = 0; i < requests; ++i) {
            InferResponse response = futures[i].get();
            std::vector<std::vector<Real>> member_logits;
            for (const auto &member : duo_members)
                member_logits.push_back(
                    directLogits(*member, frames.images[i]));
            std::vector<Real> expected;
            fuseLogits(ensemble_spec.fusion, member_logits, expected);
            ensemble_parity_ok = ensemble_parity_ok &&
                                 response.status == ServeStatus::Ok &&
                                 response.fan_out == duo_members.size() &&
                                 response.logits == expected;
        }
    }
    const double ensemble_ms = ensemble_wall.milliseconds();
    ensemble_engine.drain();
    const EngineStats ensemble_stats = ensemble_engine.stats();
    const double ensemble_rps =
        ensemble_ms > 0 ? 1e3 * static_cast<double>(requests) / ensemble_ms
                        : 0.0;
    const double ensemble_mean_fan_out =
        ensemble_stats.ensembles > 0
            ? static_cast<double>(ensemble_stats.fan_out) /
                  static_cast<double>(ensemble_stats.ensembles)
            : 0.0;
    std::printf("\nensemble (%zu members, %s): %zu requests -> %.1f "
                "fused rps, fan-out %llu over %llu calls (mean %.1f)\n",
                duo_members.size(), fusionRuleName(ensemble_spec.fusion),
                requests, ensemble_rps,
                static_cast<unsigned long long>(ensemble_stats.fan_out),
                static_cast<unsigned long long>(ensemble_stats.ensembles),
                ensemble_mean_fan_out);
    std::printf("ensemble parity (fused == offline fuseLogits): %s\n",
                ensemble_parity_ok ? "yes" : "NO");

    std::printf("parity (engine == direct inferField, both modes): %s\n",
                parity_ok ? "yes" : "NO");
    if (alloc_measured)
        std::printf("steady-state field allocs (batched burst): %llu\n",
                    static_cast<unsigned long long>(steady_allocs));

    // Gates per the hardware-conditioning convention: parity (in-process
    // and over the socket) and graceful overload are unconditional; the
    // throughput and bounded-p99 gates need real cores; the alloc gate
    // needs the counter compiled in.
    const bool throughput_gate_applies = hw_threads >= 4;
    const bool throughput_gate_pass =
        !throughput_gate_applies || best_speedup >= 2.0;
    const bool alloc_gate_pass = !alloc_measured || steady_allocs == 0;
    // Bounded tail: a closed loop of K clients keeps at most K requests
    // in flight, so p99 should stay within a small multiple of one
    // direct inference (batching amortizes, and the engine wakes the
    // event loop as each reply resolves). Generous bound; it catches
    // pathologies (a stuck connection, a lost wakeup), not regressions
    // of a few percent.
    const double socket_p99_bound_ms =
        20.0 * static_cast<double>(socket_clients) * direct_ms_per_request +
        100.0;
    const bool socket_gate_applies = hw_threads >= 4;
    const bool socket_gate_pass =
        !socket_gate_applies || socket_p99 <= socket_p99_bound_ms;

    std::printf("\ngate: parity bitwise -> %s\n",
                parity_ok ? "PASS" : "FAIL");
    std::printf("gate: socket-path parity bitwise -> %s\n",
                socket_parity_ok ? "PASS" : "FAIL");
    std::printf("gate: batched >= 2x sequential at >= 4 hw threads -> %s "
                "(%.2fx%s)\n",
                throughput_gate_pass ? "PASS" : "FAIL", best_speedup,
                throughput_gate_applies ? "" : ", skipped: < 4 hw threads");
    std::printf("gate: closed-loop socket p99 <= %.1f ms at >= 4 hw "
                "threads -> %s (%.2f ms%s)\n",
                socket_p99_bound_ms, socket_gate_pass ? "PASS" : "FAIL",
                socket_p99,
                socket_gate_applies ? "" : ", skipped: < 4 hw threads");
    std::printf("gate: 4x overload degrades gracefully (503 + "
                "Retry-After, health live) -> %s\n",
                overload_pass ? "PASS" : "FAIL");
    std::printf("gate: ensemble fusion bitwise == offline -> %s\n",
                ensemble_parity_ok ? "PASS" : "FAIL");
    std::printf("gate: zero steady-state allocs (shared instance, no "
                "clones) -> %s%s\n",
                alloc_gate_pass ? "PASS" : "FAIL",
                alloc_measured ? "" : " (skipped: alloc stats compiled out)");

    bench::saveCsv(csv, "serve");
    Json artifact;
    artifact["bench"] = Json("serve");
    artifact["scale"] = Json(benchFullScale() ? "full" : "quick");
    artifact["hw_threads"] = Json(hw_threads);
    artifact["alloc_stats_compiled"] = Json(fieldAllocStatsEnabled());
    artifact["throughput"] = std::move(throughput_rows);

    Json socket_section;
    socket_section["requests"] = Json(socket_requests);
    socket_section["clients"] = Json(socket_clients);
    socket_section["rps"] = Json(socket_rps);
    socket_section["p50_ms"] = Json(socket_p50);
    socket_section["p99_ms"] = Json(socket_p99);
    socket_section["mismatches"] = Json(socket_mismatches.load());
    socket_section["failures"] = Json(socket_failures.load());
    artifact["socket"] = std::move(socket_section);

    Json overload_section;
    overload_section["clients"] = Json(overload_clients);
    overload_section["served"] = Json(overload_ok.load());
    overload_section["shed_503"] = Json(overload_shed.load());
    overload_section["retry_after_seen"] =
        Json(overload_retry_after.load());
    artifact["overload"] = std::move(overload_section);

    Json ensemble_section;
    ensemble_section["model"] = Json(ensemble_spec.name);
    Json ensemble_members;
    for (const std::string &member : ensemble_spec.members)
        ensemble_members.push(Json(member));
    ensemble_section["members"] = std::move(ensemble_members);
    ensemble_section["fusion"] =
        Json(std::string(fusionRuleName(ensemble_spec.fusion)));
    ensemble_section["requests"] = Json(requests);
    ensemble_section["fused_rps"] = Json(ensemble_rps);
    ensemble_section["ensembles"] =
        Json(static_cast<std::size_t>(ensemble_stats.ensembles));
    ensemble_section["fan_out"] =
        Json(static_cast<std::size_t>(ensemble_stats.fan_out));
    ensemble_section["mean_fan_out"] = Json(ensemble_mean_fan_out);
    artifact["ensemble"] = std::move(ensemble_section);

    // Resolved execution shape of this run (not the configured knobs):
    // how many acceptor/IO threads the server actually span up and how
    // many workers the engine's pool fans batches across.
    Json execution;
    execution["io_threads"] = Json(server_io_threads);
    execution["engine_workers"] =
        Json(ThreadPool::global().workerCount());
    execution["hw_threads"] = Json(hw_threads);
    execution["socket_clients"] = Json(socket_clients);
    artifact["execution"] = std::move(execution);

    Json gates;
    gates["parity_pass"] = Json(parity_ok);
    gates["socket_parity_pass"] = Json(socket_parity_ok);
    gates["throughput_gate_applies"] = Json(throughput_gate_applies);
    gates["best_speedup"] = Json(best_speedup);
    gates["throughput_gate_pass"] = Json(throughput_gate_pass);
    gates["socket_gate_applies"] = Json(socket_gate_applies);
    gates["socket_p99_bound_ms"] = Json(socket_p99_bound_ms);
    gates["socket_gate_pass"] = Json(socket_gate_pass);
    gates["overload_gate_pass"] = Json(overload_pass);
    gates["ensemble_parity_pass"] = Json(ensemble_parity_ok);
    gates["alloc_gate_applies"] = Json(alloc_measured);
    gates["steady_state_field_allocs"] =
        Json(static_cast<std::size_t>(steady_allocs));
    gates["alloc_gate_pass"] = Json(alloc_gate_pass);
    artifact["gates"] = std::move(gates);
    const std::string json_path = bench::resultsDir() + "/BENCH_serve.json";
    if (artifact.save(json_path))
        std::printf("[json] %s\n", json_path.c_str());

    return (parity_ok && socket_parity_ok && ensemble_parity_ok &&
            throughput_gate_pass && socket_gate_pass && overload_pass &&
            alloc_gate_pass)
               ? 0
               : 1;
}
