/**
 * @file
 * Multi-model inference serving engine (the deployment half of the
 * paper's end-to-end story: train once, then serve DONN inference at
 * high throughput).
 *
 * An InferenceEngine accepts asynchronous InferRequests from any number
 * of client threads and executes them through a dynamic micro-batcher: a
 * dispatcher thread coalesces queued same-model requests into batches of
 * up to `max_batch` and fans each batch out across the shared ThreadPool,
 * where every worker runs the const, thread-safe in-place inference path
 * (`DonnModel::inferLogitsInPlace`) against the one registered model
 * instance, leasing scratch from its own per-thread PropagationWorkspace
 * arena. The process-wide FFT-plan and transfer-function caches are
 * shared across all models and clients, and no model is ever cloned per
 * request — results are bitwise-identical to calling
 * `model.inferField(model.encode(image))` directly.
 *
 * Scheduling is SLA-aware (serving API v2, serve/api.hpp): every
 * request carries a steady-clock deadline budget and a Priority class.
 * The dispatcher sweeps expired requests out of the queue before every
 * batch — they are answered with ServeStatus::DeadlineExceeded and
 * never occupy a batch slot — and forms batches most-urgent-first. Per
 * -model admission quotas shed load with ServeStatus::Overloaded
 * (lowest-priority, youngest queued work is evicted first) before the
 * bounded queue can collapse into unbounded waiting. All failures are
 * typed ServeStatus codes on the response, never exceptions. A caller
 * that multiplexes many futures (the HTTP front end) passes a
 * completion hook to submit() and is told the moment each one resolves
 * instead of polling.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/api.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "tensor/field.hpp"
#include "utils/sync.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {

/** Micro-batching and admission-control knobs of the serving engine. */
struct BatchingConfig
{
    /** Largest micro-batch one dispatch coalesces (per model). */
    std::size_t max_batch = 64;

    /** Bound on queued requests; submit() blocks when the queue is full
     *  (backpressure instead of unbounded memory growth). */
    std::size_t max_queue = 4096;

    /**
     * Default per-model admission quota: at most this many requests of
     * one model may be queued; past it, load is shed with
     * ServeStatus::Overloaded instead of queueing (lowest-priority
     * youngest queued request of that model is evicted first when the
     * newcomer outranks it). 0 disables admission control and keeps the
     * v1 blocking-backpressure behavior. Socket front ends should set a
     * quota — a shed is a 503 the client can retry; a blocked submit is
     * an IO thread doing nothing.
     */
    std::size_t max_queued_per_model = 0;
};

/** Aggregate serving counters. Ensemble member sub-requests ride the
 *  ordinary queue and count like any other request; the fused parent
 *  response adds one more `requests` tick plus the ensemble counters,
 *  so one 3-member ensemble call contributes 4 to `requests`. */
struct EngineStats
{
    std::uint64_t requests = 0; ///< responses delivered (every status)
    std::uint64_t failed = 0;   ///< responses with status != Ok
    std::uint64_t shed = 0;     ///< of failed: admission-control sheds
    std::uint64_t expired = 0;  ///< of failed: deadline sweep victims
    std::uint64_t batches = 0;  ///< micro-batches dispatched
    std::size_t max_batch = 0;  ///< largest micro-batch observed
    std::uint64_t ensembles = 0; ///< fused ensemble responses delivered
    std::uint64_t fan_out = 0;   ///< member sub-requests fanned out

    double
    meanBatch() const
    {
        return batches > 0
                   ? static_cast<double>(requests - failed) /
                         static_cast<double>(batches)
                   : 0.0;
    }
};

/** Asynchronous multi-client, multi-model inference engine. */
class InferenceEngine
{
  public:
    /** Called once per submit() on the thread that resolves its future,
     *  right after the value is set. Must be cheap and must not throw. */
    using CompletionHook = std::function<void()>;

    /**
     * @param registry model source; must outlive the engine. Hot-swaps
     *        and unloads take effect at the next micro-batch; in-flight
     *        batches keep their acquired instance alive.
     * @param config micro-batching + admission knobs
     * @param pool execution pool; nullptr uses ThreadPool::global()
     */
    explicit InferenceEngine(ModelRegistry &registry,
                             BatchingConfig config = {},
                             ThreadPool *pool = nullptr);

    /** Drains every accepted request, then stops the dispatcher. */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Enqueue a request. Thread-safe. The future always resolves with a
     * response; failures are typed `ServeStatus` codes (unknown model,
     * deadline expired, shed by admission control, bad input), never
     * exceptions. A request past its deadline or shed by a quota may
     * resolve before this call returns. Blocks only when the *global*
     * queue is at max_queue and no per-model quota shed applied.
     *
     * A request naming a declared ensemble fans out to one sub-request
     * per member; sub-requests inherit the request's priority and
     * deadline budget (one shared clock, started at this submit), ride
     * the ordinary per-member-model micro-batching alongside plain
     * traffic, and the future resolves with one fused response once
     * every member has (fusion per the ensemble's FusionRule; any
     * member failure fails the fused response with that member's
     * status — see serve/api.hpp EnsembleSpec).
     *
     * `on_done`, when set, runs exactly once on whichever thread
     * resolves the future (dispatcher, submitter, or the last ensemble
     * member's), after the future is ready. Quota sheds can run it
     * before this call returns.
     * @throws std::runtime_error when the engine is shutting down (the
     *         hook is then never called)
     */
    std::future<InferResponse> submit(InferRequest request,
                                      CompletionHook on_done = {})
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Synchronous convenience: submit + wait. One-at-a-time callers get
     * singleton batches — this is the "sequential dispatch" baseline the
     * serving benchmark compares micro-batching against.
     */
    InferResponse inferNow(InferRequest request);

    /** Block until every accepted request has completed. */
    void drain() LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Hold off forming micro-batches (already-running batches finish;
     * submissions keep queueing and admission control keeps applying).
     * For maintenance windows and deterministic scheduling tests.
     */
    void pause() LIGHTRIDGE_EXCLUDES(mutex_);

    /** Resume batch formation; the deadline sweep runs first, so work
     *  that expired while paused never reaches a batch. */
    void resume() LIGHTRIDGE_EXCLUDES(mutex_);

    /** Override the admission quota for one model (0 = no quota). Takes
     *  effect for subsequent submissions. */
    void setModelQuota(const std::string &model, std::size_t max_queued)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Seconds a shed client should wait before retrying, derived from
     * the live backlog (queued + in-flight requests) times the recent
     * per-request batch service time (an EWMA the dispatcher maintains),
     * clamped to [1, 60]. Every 503 path of the HTTP front end returns
     * this same value so clients back off consistently.
     */
    int retryAfterSeconds() const LIGHTRIDGE_EXCLUDES(mutex_);

    /** Serving counters (consistent snapshot). */
    EngineStats stats() const LIGHTRIDGE_EXCLUDES(mutex_);

    /** Lock-cheap metric registry (latency/batch histograms, per-status
     *  counters, queue-depth gauge) — what GET /metrics renders. */
    const ServeMetrics &metrics() const { return metrics_; }

    const BatchingConfig &config() const { return config_; }

  private:
    struct EnsembleJob;

    struct Pending
    {
        InferRequest request;
        std::promise<InferResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
        CompletionHook on_done; ///< plain requests and ensemble parents

        /** Fan-out bookkeeping: member sub-requests of an ensemble
         *  carry the shared job and their member slot; their `request`
         *  holds the member model name but an *empty* image (batches
         *  read the parent's frame in place — no per-member copy). */
        std::shared_ptr<EnsembleJob> job;
        std::size_t member_index = 0;
    };

    /**
     * Shared state of one in-flight ensemble request. Created at
     * submit, referenced by every member sub-request; the last member
     * to resolve (any status, any thread) fuses and answers the parent.
     * Member model instances are pinned at submit, so unloading or
     * hot-swapping a member mid-request never changes this request's
     * results.
     */
    struct EnsembleJob
    {
        Pending parent; ///< client-facing promise + original request
        EnsembleSpec spec;
        std::vector<std::shared_ptr<const DonnModel>> members;

        Mutex mutex;
        std::size_t remaining LIGHTRIDGE_GUARDED_BY(mutex) = 0;
        std::vector<std::vector<Real>> member_logits
            LIGHTRIDGE_GUARDED_BY(mutex);
        /** Per-member outcome; the fused failure is the first non-Ok
         *  in *member order*, independent of completion order. */
        std::vector<ServeStatus> member_status
            LIGHTRIDGE_GUARDED_BY(mutex);
        std::vector<std::string> member_error
            LIGHTRIDGE_GUARDED_BY(mutex);
        std::size_t max_member_batch LIGHTRIDGE_GUARDED_BY(mutex) = 0;
    };

    std::future<InferResponse> enqueueEnsemble(Pending &&parent)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Admission-control core shared by plain and ensemble submits:
     * queue `pending` under quota + backpressure rules, moving quota
     * victims (an evicted queued entry or the newcomer itself) into
     * `shed` for the caller to resolve outside the lock.
     * @return true when `pending` was queued
     * @throws std::runtime_error when the engine stops while blocked
     */
    bool admitLocked(Pending &&pending, std::vector<Pending> &shed)
        LIGHTRIDGE_REQUIRES(mutex_);

    std::size_t quotaForLocked(const std::string &model) const
        LIGHTRIDGE_REQUIRES(mutex_);
    void dispatchLoop() LIGHTRIDGE_EXCLUDES(mutex_);
    void runBatch(const std::string &model_name, std::vector<Pending> batch)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /** Resolve one pending with a non-Ok status, routing ensemble
     *  member sub-requests to their job. Does not touch stats. */
    void deliverFailure(Pending &pending, ServeStatus status,
                        const std::string &error, double latency_ms)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /** Record one member result on its job; the last member triggers
     *  finishEnsemble. Consumes `pending.job`. */
    void ensembleMemberDone(Pending &pending, ServeStatus status,
                            std::vector<Real> &&logits,
                            std::size_t batch_size,
                            const std::string &error)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /** Fuse member logits (or pick the first member failure), commit
     *  parent stats/metrics, and resolve the parent promise. */
    void finishEnsemble(EnsembleJob &job) LIGHTRIDGE_EXCLUDES(mutex_);

    /** Resolve one pending with a non-Ok status. Does not touch
     *  stats. */
    static void failPending(Pending &pending, ServeStatus status,
                            const std::string &error, double latency_ms);

    /** The one place a client-facing promise is set: set the value,
     *  then run the completion hook. */
    static void resolve(Pending &pending, InferResponse &&response);

    ModelRegistry &registry_;
    BatchingConfig config_;
    ThreadPool *pool_;

    mutable Mutex mutex_;
    CondVar queued_cv_; ///< dispatcher wakeup
    CondVar space_cv_;  ///< submit backpressure
    CondVar idle_cv_;   ///< drain wakeup
    std::deque<Pending> queue_ LIGHTRIDGE_GUARDED_BY(mutex_);
    std::map<std::string, std::size_t> queued_per_model_
        LIGHTRIDGE_GUARDED_BY(mutex_);
    std::map<std::string, std::size_t> quota_overrides_
        LIGHTRIDGE_GUARDED_BY(mutex_);
    std::size_t in_flight_ LIGHTRIDGE_GUARDED_BY(mutex_) = 0;
    bool stop_ LIGHTRIDGE_GUARDED_BY(mutex_) = false;
    bool paused_ LIGHTRIDGE_GUARDED_BY(mutex_) = false;
    EngineStats stats_ LIGHTRIDGE_GUARDED_BY(mutex_);
    ServeMetrics metrics_; ///< internally wait-free (relaxed atomics)

    /** EWMA of per-request batch service time in ms (dispatcher-only
     *  writer; retryAfterSeconds() reads it relaxed). */
    std::atomic<double> service_ms_ewma_{0.0};

    std::thread dispatcher_;
};

} // namespace lightridge
