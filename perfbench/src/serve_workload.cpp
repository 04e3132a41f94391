/**
 * @file
 * Serving workload: HttpServer + ServingService on loopback in front of
 * an InferenceEngine serving one 3-layer 32x32 model, driven by the
 * open-loop load generator with raw-JSON `image` request bodies.
 *
 * An untraced run measures client latency at a fixed offered rate, then
 * climbs a fixed rate ladder for the capacity: the highest rung whose
 * p99 stays within the latency limit with every request answered 200
 * and no growing backlog. Every 200 response's logits must be bitwise
 * equal to direct DonnModel inference on the same frame.
 *
 * The traced run replays requests in-process through the calls the
 * server and engine make (HTTP parse, JSON parse, request parse,
 * encode, inference, response render, HTTP serialize) under spans, then
 * runs the fixed-rate phase with per-request spans from the generator.
 */
#include <cmath>
#include <memory>

#include "data/synth_digits.hpp"
#include "fft/fft.hpp"
#include "loadgen.hpp"
#include "optics/workspace.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lr = lightridge;

namespace {

constexpr std::size_t kGrid = 32;
constexpr std::size_t kDepth = 3;
constexpr std::size_t kFrames = 256;
constexpr std::size_t kMaxBatch = 32;
constexpr const char *kModel = "digits32";
constexpr int kSetups = 5;
constexpr std::size_t kWarmupRequests = 32;

/** Capacity measured on the seed commit (4 hw threads); the ladder
 *  search starts at its rung. */
constexpr double kSeedCapacity = 1100;
/**
 * Offered rate of the latency phase. Well below the rate (about 600 rps
 * on 4 hw threads) at which every connection sits on a deferred reply
 * and the server's 5 ms poll tick paces the replies: there the p50 ran
 * 2.5-11.5 ms from run to run on a shared host at 550 rps and 3.7-6.8 ms
 * at 300 rps, against 5.8-6.1 ms at 150 rps.
 */
constexpr double kFixedRate = 150;
/** Latency limit on p99 that defines capacity. */
constexpr double kLatencyLimitMs = 25;
/** Rate ladder: kLadderBase * kLadderRatio^k requests per second. */
constexpr double kLadderBase = 100;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderTop = 96;
/** Each rung offers at least this many requests (p99 with >= 10 past). */
constexpr double kRungRequests = 2000;
constexpr double kRungMinSeconds = 1.0;
constexpr double kDrainSeconds = 10.0;

double
ladderRate(int k)
{
    return kLadderBase * std::pow(kLadderRatio, k);
}

std::string
requestBody(std::size_t id, const lr::RealMap &frame)
{
    lr::Json image;
    image["rows"] = lr::Json(frame.rows());
    image["cols"] = lr::Json(frame.cols());
    lr::Json data;
    for (std::size_t i = 0; i < frame.size(); ++i)
        data.push(lr::Json(frame[i]));
    image["data"] = std::move(data);
    lr::Json body;
    body["id"] = lr::Json(id);
    body["image"] = std::move(image);
    return body.dump();
}

std::string
httpRequest(const std::string &body)
{
    return std::string("POST /v1/models/") + kModel +
           "/infer HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

/** Everything one set-up builds; the server stops before the engine. */
struct ServeState
{
    lr::ClassDataset frames;
    std::vector<std::vector<lr::Real>> reference; ///< direct inference
    std::vector<std::string> bodies;              ///< JSON request bodies
    std::vector<std::string> requests;            ///< full HTTP requests
    lr::ModelRegistry registry;
    std::shared_ptr<const lr::DonnModel> model;
    std::unique_ptr<lr::InferenceEngine> engine;
    std::unique_ptr<lr::ServingService> service;
    std::unique_ptr<lr::HttpServer> server;

    ~ServeState()
    {
        if (server)
            server->stop();
        server.reset();
        service.reset();
        engine.reset();
    }
};

/**
 * True when a response body carries status ok and logits bitwise equal
 * to the direct reference; its engine latency goes to `engine_ms`.
 */
bool
verifyBody(const std::string &body, const std::vector<lr::Real> &reference,
           double *engine_ms)
{
    try {
        const lr::Json j = lr::Json::parse(body);
        if (j.at("status").asString() != "ok")
            return false;
        if (engine_ms != nullptr)
            *engine_ms = j.at("latency_ms").asNumber();
        const lr::Json::Array &logits = j.at("logits").asArray();
        if (logits.size() != reference.size())
            return false;
        for (std::size_t c = 0; c < logits.size(); ++c)
            if (logits[c].asNumber() != reference[c])
                return false;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * One full set-up: frame synthesis, model build through the
 * experiment-spec API (transfer functions and FFT plans), reference
 * logits, request rendering, engine + server start and an HTTP warm-up.
 */
std::unique_ptr<ServeState>
setUp(const Options &options, Outcome &out)
{
    lr::clearTransferFunctionCache();
    lr::clearFftPlanCache();
    auto state = std::make_unique<ServeState>();
    state->frames = lr::makeSynthDigits(kFrames, deriveSeed(options.seed, 1));

    state->registry.registerModel(
        kModel, buildModel(kGrid, kDepth, state->frames.num_classes,
                           deriveSeed(options.seed, 3)));
    state->model = state->registry.acquire(kModel);

    const lr::DonnModel &model = *state->model;
    for (std::size_t i = 0; i < kFrames; ++i) {
        const lr::RealMap &frame = state->frames.images[i];
        state->reference.push_back(
            model.detector().readout(model.inferField(model.encode(frame))));
        state->bodies.push_back(requestBody(i, frame));
        state->requests.push_back(httpRequest(state->bodies.back()));
    }

    lr::BatchingConfig batching;
    batching.max_batch = kMaxBatch;
    state->engine =
        std::make_unique<lr::InferenceEngine>(state->registry, batching);
    state->service = std::make_unique<lr::ServingService>(state->registry,
                                                          *state->engine);
    lr::ServingService *service = state->service.get();
    // One IO thread: with two, where the generator's connections land
    // across IO threads varies per run and the latency at the fixed rate
    // is bimodal (p50 about 1.8 or 3.7 ms on 4 hw threads).
    lr::HttpServerConfig http_config;
    http_config.io_threads = 1;
    state->server = std::make_unique<lr::HttpServer>(
        http_config, [service](lr::HttpRequest &&request) {
            return service->handle(std::move(request));
        });
    state->server->start();

    lr::HttpClient client("127.0.0.1", state->server->port());
    const std::string route = std::string("/v1/models/") + kModel + "/infer";
    for (std::size_t i = 0; i < kWarmupRequests; ++i) {
        const lr::HttpResponse response =
            client.request("POST", route, state->bodies[i % kFrames]);
        out.check(response.status == 200 &&
                  verifyBody(response.body, state->reference[i % kFrames],
                             nullptr));
    }
    client.close();
    return state;
}

/** Checked result of one open-loop phase. */
struct Phase
{
    PhaseResult result;
    std::vector<double> latency_ms; ///< due -> reply, answered only
    std::vector<double> engine_ms;  ///< response latency_ms
    std::vector<double> transport_ms;
    std::size_t bad = 0;            ///< non-200, mismatched or unanswered
};

/**
 * Offer Poisson arrivals at `rate` for `seconds` and check every reply.
 * A capacity probe stops sending once its p99 is certain to miss the
 * limit (more than 1% of replies over it), so overload stays short.
 */
Phase
runPhase(ServeState &state, LoadGenerator &gen, double rate, double seconds,
         std::uint64_t seed, bool probe, Outcome &out)
{
    std::vector<double> offsets = poissonSchedule(rate, seconds, seed);
    std::mt19937_64 pick(deriveSeed(seed, 7));
    std::vector<std::size_t> payload_of(offsets.size());
    for (std::size_t &p : payload_of)
        p = static_cast<std::size_t>(pick() % kFrames);

    Phase phase;
    const std::size_t over_allowed = offsets.size() / 100;
    phase.result = gen.run(offsets, payload_of, state.requests, kDrainSeconds,
                           kLatencyLimitMs, probe ? over_allowed + 1 : 0);
    for (const RequestRecord &r : phase.result.records) {
        double engine_ms = 0;
        const bool ok = r.status == 200 &&
                        verifyBody(r.body, state.reference[r.payload],
                                   &engine_ms);
        if (!out.check(ok)) {
            ++phase.bad;
            continue;
        }
        const double client_ms =
            std::chrono::duration<double, std::milli>(r.done - r.due).count();
        phase.latency_ms.push_back(client_ms);
        phase.engine_ms.push_back(engine_ms);
        phase.transport_ms.push_back(client_ms - engine_ms);
    }
    return phase;
}

/** Rung verdict: p99 within the limit, all good, backlog not growing. */
bool
rungPasses(const Phase &phase)
{
    if (phase.bad > 0 || !phase.result.drained ||
        phase.latency_ms.size() < 100)
        return false;
    if (quantile(phase.latency_ms, 0.99) > kLatencyLimitMs)
        return false;
    const std::size_t q = phase.latency_ms.size() / 4;
    const std::vector<double> first(phase.latency_ms.begin(),
                                    phase.latency_ms.begin() + q);
    const std::vector<double> last(phase.latency_ms.end() - q,
                                   phase.latency_ms.end());
    return median(last) <= median(first) + kLatencyLimitMs / 5;
}

/**
 * Capacity on the fixed ladder: probe the rung at the seed capacity,
 * gallop up (or down) by doubling steps until the verdict flips, then
 * bisect between the highest passing and the lowest failing rung.
 */
double
measureCapacity(ServeState &state, LoadGenerator &gen, double budget_s,
                std::uint64_t seed, Outcome &out)
{
    int start_rung = 0;
    while (start_rung < kLadderTop &&
           ladderRate(start_rung + 1) <= kSeedCapacity)
        ++start_rung;
    const Clock::time_point start = Clock::now();
    std::string steps;
    bool out_of_time = false;
    auto probe = [&](int k) {
        const double rate = ladderRate(k);
        const double seconds = std::max(kRungMinSeconds, kRungRequests / rate);
        if (!steps.empty() &&
            secondsBetween(start, Clock::now()) + seconds > budget_s) {
            out_of_time = true;
            return false;
        }
        // A failed rung is offered once more (fresh arrivals) before the
        // verdict stands, so one host stall does not end the climb.
        for (int attempt = 0; attempt < 2; ++attempt) {
            const Phase phase =
                runPhase(state, gen, rate, seconds,
                         deriveSeed(seed, 100 + 2 * k + attempt), true, out);
            const bool pass = rungPasses(phase);
            steps += format(" %.0f:%s(p99=%.1f)", rate, pass ? "ok" : "fail",
                            quantile(phase.latency_ms, 0.99));
            if (pass)
                return true;
        }
        return false;
    };

    int pass = -1, fail = kLadderTop + 1; // highest pass, lowest fail
    if (probe(start_rung)) {
        pass = start_rung;
        for (int step = 1; pass + step <= kLadderTop && !out_of_time;
             step *= 2) {
            if (!probe(pass + step)) {
                fail = pass + step;
                break;
            }
            pass += step;
        }
    } else {
        fail = start_rung;
        for (int step = 1; fail - step >= 0 && !out_of_time; step *= 2) {
            if (probe(fail - step)) {
                pass = fail - step;
                break;
            }
            fail -= step;
        }
    }
    while (pass >= 0 && fail - pass > 1 && fail <= kLadderTop &&
           !out_of_time) {
        const int mid = (pass + fail) / 2;
        if (probe(mid))
            pass = mid;
        else
            fail = mid;
    }
    out.notes.push_back("capacity ladder (rps:verdict):" + steps +
                        (out_of_time ? " (time budget reached)" : ""));
    return pass >= 0 ? ladderRate(pass) : 0.0;
}

/**
 * Replay requests in-process through the calls the HTTP server, the
 * serving service and the engine make for one request, under spans:
 *   serve.request > http.parse | serve.parse | core.encode |
 *                   core.infer | serve.render | http.serialize
 */
void
replayRequests(ServeState &state, std::size_t count, Tracer &tracer,
               Outcome &out)
{
    const lr::DonnModel &model = *state.model;
    lr::PropagationWorkspace &workspace =
        lr::PropagationWorkspace::threadLocal();
    lr::SampleSource samples;
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t f = k % kFrames;
        Tracer::Scope request =
            tracer.span("serve.request", static_cast<std::int64_t>(k));
        lr::HttpParser parser;
        {
            Tracer::Scope s = tracer.span("http.parse", k);
            const std::string &bytes = state.requests[f];
            parser.feed(bytes.data(), bytes.size());
        }
        if (!out.check(parser.state() == lr::HttpParser::State::Complete))
            continue;
        lr::ParsedServeRequest parsed;
        {
            Tracer::Scope s = tracer.span("serve.parse", k);
            parsed = lr::parseServeRequestJson(
                lr::Json::parse(parser.request().body), k, samples, kModel);
        }
        lr::WorkspaceField u(workspace, kGrid, kGrid);
        {
            Tracer::Scope s = tracer.span("core.encode", k);
            model.encodeInto(parsed.request.image, u.get());
        }
        lr::InferResponse response;
        response.id = parsed.request.id;
        response.model = kModel;
        {
            Tracer::Scope s = tracer.span("core.infer", k);
            response.logits = model.inferLogitsInPlace(u.get(), workspace);
        }
        response.prediction = static_cast<int>(
            std::max_element(response.logits.begin(),
                             response.logits.end()) -
            response.logits.begin());
        response.batch_size = 1;
        lr::HttpResponse http;
        {
            Tracer::Scope s = tracer.span("serve.render", k);
            http.body = lr::serveResponseJson(response, -1, true).dump() + "\n";
        }
        {
            Tracer::Scope s = tracer.span("http.serialize", k);
            const std::string wire = lr::serializeHttpResponse(http, true);
            (void)wire;
        }
        out.check(response.logits == state.reference[f]);
    }
}

} // namespace

Outcome
runServeWorkload(const Options &options)
{
    Outcome out;
    std::vector<double> setups;
    std::unique_ptr<ServeState> state;
    for (int k = 0; k < kSetups; ++k) {
        state.reset();
        const Clock::time_point a = k == 0 ? processStart() : Clock::now();
        state = setUp(options, out);
        setups.push_back(secondsBetween(a, Clock::now()));
    }
    const lr::TransferFunctionCacheStats tf = lr::transferFunctionCacheStats();
    const std::size_t connections = hardwareThreads();
    LoadGenerator gen(state->server->port(), connections);
    out.notes.push_back(format(
        "shape: grid=%zu depth=%zu frames=%zu max_batch=%zu io_threads=%zu "
        "connections=%zu fixed_rate=%.0f rps limit p99<=%.0f ms",
        kGrid, kDepth, kFrames, kMaxBatch, state->server->ioThreads(),
        connections, kFixedRate, kLatencyLimitMs));
    out.notes.push_back(format("setup_s: median %.4f s over %zu set-ups",
                               median(setups), setups.size()));

    if (!options.trace) {
        const Phase fixed = runPhase(*state, gen, kFixedRate,
                                     0.6 * options.seconds,
                                     deriveSeed(options.seed, 10), false,
                                     out);
        // Footprint of steady serving: the capacity probes below queue a
        // run-dependent backlog of request bytes.
        const double rss_mb = peakRssMb();
        const double capacity = measureCapacity(
            *state, gen, 0.4 * options.seconds, options.seed, out);
        const double p50 = median(fixed.latency_ms);
        const double p99 = quantile(fixed.latency_ms, 0.99);
        out.notes.push_back(format(
            "serve_p50_ms: %.3f  serve_p99_ms: %.3f over %zu requests at "
            "%.0f rps (%zu past p99)",
            p50, p99, fixed.latency_ms.size(), kFixedRate,
            fixed.latency_ms.size() / 100));
        out.notes.push_back(format(
            "serve_capacity_rps: %.1f  engine latency p50: %.3f ms  "
            "generator late p99: %.3f ms",
            capacity, median(fixed.engine_ms),
            quantile(fixed.result.lateMs(), 0.99)));
        out.notes.push_back("train_samples_per_s / eval_samples_per_s: n/a "
                            "on this workload");
        out.add("setup_s", median(setups), "s");
        out.add("peak_rss_mb", rss_mb, "MB");
        out.add("work_ms", p50, "ms");
        out.add("infer_ms", median(fixed.engine_ms), "ms");
        return out;
    }

    // ---- traced run -------------------------------------------------
    Tracer untraced(false);
    const Clock::time_point a = Clock::now();
    replayRequests(*state, 2 * kFrames, untraced, out);
    const double plain_s = secondsBetween(a, Clock::now());
    Tracer tracer(true);
    const Clock::time_point b = Clock::now();
    replayRequests(*state, 2 * kFrames, tracer, out);
    const double traced_s = secondsBetween(b, Clock::now());
    const lr::EngineStats before = state->engine->stats();
    const std::uint64_t parse_errors_before =
        state->server->transportStats().parse_errors;
    const Phase fixed =
        runPhase(*state, gen, kFixedRate, 0.5 * options.seconds,
                 deriveSeed(options.seed, 10), false, out);
    const lr::EngineStats after = state->engine->stats();
    for (const RequestRecord &r : fixed.result.records) {
        const int parent = tracer.record("http.request", r.due, r.done);
        tracer.record("loadgen.late", r.due, r.sent, parent);
    }

    const KernelTimes kernels =
        measureKernels(*state->model->hopPropagator(), 0.5, options.seed);
    const double infer_us =
        median(tracer.childSumsUs("serve.request", "core.infer"));
    addKernelMetrics(out, kernels, static_cast<double>(kDepth + 1), infer_us,
                     tf);
    out.add("core.encode_us",
            median(tracer.childSumsUs("serve.request", "core.encode")), "us");
    out.add("core.infer_us", infer_us, "us");
    out.add("serve.parse_us",
            median(tracer.childSumsUs("serve.request", "serve.parse")), "us");
    out.add("serve.render_us",
            median(tracer.childSumsUs("serve.request", "serve.render")),
            "us");
    out.add("serve.engine_ms.p50", median(fixed.engine_ms), "ms");
    out.add("serve.engine_ms.p99", quantile(fixed.engine_ms, 0.99), "ms");
    out.add("serve.transport_ms.p50", median(fixed.transport_ms), "ms");
    out.add("serve.transport_ms.p99", quantile(fixed.transport_ms, 0.99),
            "ms");
    const std::uint64_t batches = after.batches - before.batches;
    const std::uint64_t served =
        (after.requests - after.failed) - (before.requests - before.failed);
    out.add("serve.batch_mean",
            batches > 0 ? static_cast<double>(served) / batches : 0.0,
            "count");
    out.add("serve.shed", static_cast<double>(after.shed - before.shed),
            "count");
    out.add("serve.expired",
            static_cast<double>(after.expired - before.expired), "count");
    out.add("http.parse_errors",
            static_cast<double>(state->server->transportStats().parse_errors -
                                parse_errors_before),
            "count");
    out.add("loadgen.late_p99_ms", quantile(fixed.result.lateMs(), 0.99),
            "ms");
    const Tracer::Coverage cover = tracer.coverage("serve.request", {});
    out.add("trace.step_coverage", cover.covered_share, "ratio");
    out.add("trace.uncovered_us", cover.uncovered_us_median, "us");
    out.add("trace.overhead", traced_s / plain_s - 1.0, "ratio");
    out.notes.push_back(format(
        "replay: %zu requests, spans cover %.2f%% of request wall; live "
        "phase %zu requests at %.0f rps",
        cover.roots, 100.0 * cover.covered_share, fixed.latency_ms.size(),
        kFixedRate));
    finishTrace(out, tracer, options);
    return out;
}

} // namespace perfbench
