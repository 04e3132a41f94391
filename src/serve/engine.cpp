#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "optics/workspace.hpp"

namespace lightridge {

namespace {

double
millisecondsBetween(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

} // namespace

InferenceEngine::InferenceEngine(ModelRegistry &registry,
                                 BatchingConfig config, ThreadPool *pool)
    : registry_(registry), config_(config),
      pool_(pool != nullptr ? pool : &ThreadPool::global())
{
    if (config_.max_batch == 0)
        config_.max_batch = 1;
    if (config_.max_queue == 0)
        config_.max_queue = 1;
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

InferenceEngine::~InferenceEngine()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    queued_cv_.notify_all();
    space_cv_.notify_all();
    if (dispatcher_.joinable())
        dispatcher_.join();
}

std::future<InferResponse>
InferenceEngine::submit(InferRequest request, CompletionHook on_done)
{
    Pending pending;
    pending.request = std::move(request);
    pending.on_done = std::move(on_done);
    pending.enqueued = std::chrono::steady_clock::now();
    if (registry_.isEnsemble(pending.request.model))
        return enqueueEnsemble(std::move(pending));
    std::future<InferResponse> future = pending.promise.get_future();

    // Victims resolved outside the lock: the evicted queue entry (when
    // a newcomer outranks queued work at quota) or the newcomer itself.
    std::vector<Pending> shed;
    bool queued = false;
    {
        MutexLock lock(mutex_);
        if (stop_)
            throw std::runtime_error(
                "InferenceEngine: submit after shutdown");
        queued = admitLocked(std::move(pending), shed);
    }
    if (queued)
        queued_cv_.notify_one();
    const auto now = std::chrono::steady_clock::now();
    for (Pending &victim : shed) {
        const double ms = millisecondsBetween(victim.enqueued, now);
        metrics_.recordResponse(ServeStatus::Overloaded, ms);
        deliverFailure(victim, ServeStatus::Overloaded,
                       "queue quota exceeded for model: " +
                           victim.request.model,
                       ms);
    }
    return future;
}

std::future<InferResponse>
InferenceEngine::enqueueEnsemble(Pending &&parent)
{
    auto job = std::make_shared<EnsembleJob>();
    job->parent = std::move(parent);
    std::future<InferResponse> future = job->parent.promise.get_future();

    ResolvedEnsemble resolved;
    try {
        resolved = registry_.resolveEnsemble(job->parent.request.model);
    } catch (const UnknownModelError &e) {
        // The ensemble (or one of its members) was unloaded since the
        // caller's lookup: a typed UnknownModel response naming the
        // missing member, mirroring the plain-model unload race.
        {
            MutexLock lock(mutex_);
            if (stop_)
                throw std::runtime_error(
                    "InferenceEngine: submit after shutdown");
            stats_.requests += 1;
            stats_.failed += 1;
        }
        metrics_.recordResponse(ServeStatus::UnknownModel, 0.0);
        failPending(job->parent, ServeStatus::UnknownModel, e.what(), 0.0);
        return future;
    }
    job->spec = std::move(resolved.spec);
    job->members = std::move(resolved.members);
    const std::size_t fan = job->spec.members.size();
    {
        MutexLock lock(job->mutex);
        job->remaining = fan;
        job->member_logits.resize(fan);
        job->member_status.assign(fan, ServeStatus::Ok);
        job->member_error.resize(fan);
    }

    // Fan out: one member sub-request per member, admitted under a
    // single lock hold so the members enter the queue back to back.
    // Each inherits the parent's priority and deadline budget measured
    // from the parent's enqueue time (one shared clock), and carries no
    // image of its own — batches read the parent's frame in place.
    std::vector<Pending> shed;
    bool queued_any = false;
    {
        MutexLock lock(mutex_);
        if (stop_)
            throw std::runtime_error(
                "InferenceEngine: submit after shutdown");
        for (std::size_t m = 0; m < fan; ++m) {
            Pending member;
            member.request.model = job->spec.members[m];
            member.request.id = job->parent.request.id;
            member.request.deadline = job->parent.request.deadline;
            member.request.priority = job->parent.request.priority;
            member.enqueued = job->parent.enqueued;
            member.job = job;
            member.member_index = m;
            if (admitLocked(std::move(member), shed))
                queued_any = true;
        }
    }
    if (queued_any)
        queued_cv_.notify_all();
    const auto now = std::chrono::steady_clock::now();
    for (Pending &victim : shed) {
        const double ms = millisecondsBetween(victim.enqueued, now);
        metrics_.recordResponse(ServeStatus::Overloaded, ms);
        deliverFailure(victim, ServeStatus::Overloaded,
                       "queue quota exceeded for model: " +
                           victim.request.model,
                       ms);
    }
    return future;
}

bool
InferenceEngine::admitLocked(Pending &&pending, std::vector<Pending> &shed)
{
    const std::string &model = pending.request.model;
    const std::size_t quota = quotaForLocked(model);
    if (quota > 0 && queued_per_model_[model] >= quota) {
        // Admission control: evict the least-urgent (and among
        // ties, youngest) queued request of this model that the
        // newcomer strictly outranks; otherwise shed the newcomer.
        std::size_t victim = queue_.size();
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            const InferRequest &r = queue_[i].request;
            if (r.model != model ||
                r.priority <= pending.request.priority)
                continue;
            if (victim == queue_.size() ||
                r.priority >= queue_[victim].request.priority)
                victim = i;
        }
        bool queued = false;
        if (victim < queue_.size()) {
            shed.push_back(std::move(queue_[victim]));
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(victim));
            metrics_.queueDepthAdd(-1);
            queue_.push_back(std::move(pending));
            metrics_.queueDepthAdd(+1);
            queued = true;
        } else {
            shed.push_back(std::move(pending));
        }
        stats_.requests += 1;
        stats_.failed += 1;
        stats_.shed += 1;
        return queued;
    }
    while (!stop_ && queue_.size() >= config_.max_queue)
        space_cv_.wait(mutex_);
    if (stop_)
        throw std::runtime_error("InferenceEngine: submit after shutdown");
    queued_per_model_[model] += 1;
    queue_.push_back(std::move(pending));
    metrics_.queueDepthAdd(+1);
    return true;
}

InferResponse
InferenceEngine::inferNow(InferRequest request)
{
    return submit(std::move(request)).get();
}

void
InferenceEngine::drain()
{
    MutexLock lock(mutex_);
    while (!(queue_.empty() && in_flight_ == 0))
        idle_cv_.wait(mutex_);
}

void
InferenceEngine::pause()
{
    MutexLock lock(mutex_);
    paused_ = true;
}

void
InferenceEngine::resume()
{
    {
        MutexLock lock(mutex_);
        paused_ = false;
    }
    queued_cv_.notify_all();
}

void
InferenceEngine::setModelQuota(const std::string &model,
                               std::size_t max_queued)
{
    MutexLock lock(mutex_);
    quota_overrides_[model] = max_queued;
}

std::size_t
InferenceEngine::quotaForLocked(const std::string &model) const
{
    auto it = quota_overrides_.find(model);
    return it != quota_overrides_.end() ? it->second
                                        : config_.max_queued_per_model;
}

int
InferenceEngine::retryAfterSeconds() const
{
    const double per_request_ms =
        service_ms_ewma_.load(std::memory_order_relaxed);
    std::size_t backlog;
    {
        MutexLock lock(mutex_);
        backlog = queue_.size() + in_flight_;
    }
    // Expected drain time of the current backlog at the recent batch
    // cadence, rounded up to whole seconds and clamped to [1, 60] (an
    // idle or freshly started engine answers the minimum 1s).
    const double wait_s =
        std::ceil(static_cast<double>(backlog) * per_request_ms / 1e3);
    if (wait_s <= 1.0)
        return 1;
    return wait_s >= 60.0 ? 60 : static_cast<int>(wait_s);
}

EngineStats
InferenceEngine::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
InferenceEngine::failPending(Pending &pending, ServeStatus status,
                             const std::string &error, double latency_ms)
{
    InferResponse response;
    response.id = pending.request.id;
    response.model = pending.request.model;
    response.status = status;
    response.error = error;
    response.latency_ms = latency_ms;
    response.batch_size = 0;
    resolve(pending, std::move(response));
}

void
InferenceEngine::resolve(Pending &pending, InferResponse &&response)
{
    pending.promise.set_value(std::move(response));
    if (pending.on_done)
        pending.on_done();
}

void
InferenceEngine::deliverFailure(Pending &pending, ServeStatus status,
                                const std::string &error,
                                double latency_ms)
{
    if (pending.job) {
        ensembleMemberDone(pending, status, std::vector<Real>(), 0, error);
        return;
    }
    failPending(pending, status, error, latency_ms);
}

void
InferenceEngine::ensembleMemberDone(Pending &pending, ServeStatus status,
                                    std::vector<Real> &&logits,
                                    std::size_t batch_size,
                                    const std::string &error)
{
    std::shared_ptr<EnsembleJob> job = std::move(pending.job);
    bool last = false;
    {
        MutexLock lock(job->mutex);
        if (status == ServeStatus::Ok) {
            job->member_logits[pending.member_index] = std::move(logits);
            job->max_member_batch =
                std::max(job->max_member_batch, batch_size);
        } else {
            job->member_status[pending.member_index] = status;
            job->member_error[pending.member_index] =
                error.empty() ? serveStatusName(status) : error;
        }
        job->remaining -= 1;
        last = job->remaining == 0;
    }
    if (last)
        finishEnsemble(*job);
}

void
InferenceEngine::finishEnsemble(EnsembleJob &job)
{
    const auto done = std::chrono::steady_clock::now();
    const double ms = millisecondsBetween(job.parent.enqueued, done);
    const std::size_t fan = job.spec.members.size();

    InferResponse response;
    response.id = job.parent.request.id;
    response.model = job.spec.name;
    response.fan_out = fan;
    ServeStatus status = ServeStatus::Ok;
    std::string error;
    {
        // Every member has resolved, so the job is quiescent; the lock
        // is still taken (uncontended) for the guarded fields.
        MutexLock lock(job.mutex);
        for (std::size_t m = 0; m < fan; ++m) {
            if (job.member_status[m] != ServeStatus::Ok) {
                status = job.member_status[m];
                error = "ensemble member \"" + job.spec.members[m] +
                        "\": " + job.member_error[m];
                break;
            }
        }
        if (status == ServeStatus::Ok) {
            try {
                fuseLogits(job.spec.fusion, job.member_logits,
                           response.logits);
                response.batch_size = job.max_member_batch;
            } catch (const std::exception &e) {
                // Members disagreed on class count: a member hot-swap
                // between ensemble validation and this request.
                status = ServeStatus::BadInput;
                error = e.what();
                response.logits.clear();
            }
        }
    }
    if (status == ServeStatus::Ok) {
        response.prediction = static_cast<int>(
            std::max_element(response.logits.begin(),
                             response.logits.end()) -
            response.logits.begin());
        response.latency_ms = ms;
    }

    // Parent stats commit before the parent promise resolves, same as
    // the batch path (a client observing its future sees consistent
    // counters); the lock order is job.mutex released above, then
    // mutex_ — never both.
    {
        MutexLock lock(mutex_);
        stats_.requests += 1;
        stats_.ensembles += 1;
        stats_.fan_out += fan;
        if (status != ServeStatus::Ok)
            stats_.failed += 1;
    }
    metrics_.recordResponse(status, ms);
    metrics_.recordEnsemble(fan);

    if (status != ServeStatus::Ok) {
        failPending(job.parent, status, error, ms);
        return;
    }
    resolve(job.parent, std::move(response));
}

void
InferenceEngine::dispatchLoop()
{
    // Explicit lock()/unlock() instead of a scoped lock: the loop
    // releases the mutex around batch execution and failure delivery,
    // and the thread-safety analysis verifies the lock is reacquired on
    // every path back to the loop head.
    mutex_.lock();
    for (;;) {
        while (!(stop_ || (!paused_ && !queue_.empty())))
            queued_cv_.wait(mutex_);
        if (queue_.empty()) {
            if (stop_)
                break; // queue drained, shutdown complete
            continue;
        }
        if (paused_ && !stop_)
            continue;

        // Deadline sweep: anything whose budget elapsed while queued is
        // answered now and never occupies a batch slot. Runs before
        // every batch formation (and first thing after resume()), so an
        // expired-on-arrival request cannot reach a batch.
        const auto now = std::chrono::steady_clock::now();
        std::vector<Pending> expired;
        for (auto it = queue_.begin(); it != queue_.end();) {
            const InferRequest &r = it->request;
            if (r.deadline.count() != 0 && now - it->enqueued >= r.deadline) {
                queued_per_model_[r.model] -= 1;
                metrics_.queueDepthAdd(-1);
                expired.push_back(std::move(*it));
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
        if (!expired.empty()) {
            in_flight_ += expired.size();
            stats_.requests += expired.size();
            stats_.failed += expired.size();
            stats_.expired += expired.size();
            mutex_.unlock();
            space_cv_.notify_all();
            for (Pending &pending : expired) {
                const double ms =
                    millisecondsBetween(pending.enqueued, now);
                metrics_.recordResponse(ServeStatus::DeadlineExceeded, ms);
                deliverFailure(pending, ServeStatus::DeadlineExceeded,
                               "deadline exceeded before dispatch", ms);
            }
            mutex_.lock();
            in_flight_ -= expired.size();
            if (queue_.empty() && in_flight_ == 0)
                idle_cv_.notify_all();
            continue; // re-evaluate: queue changed while unlocked
        }

        // Dynamic micro-batching, most-urgent-first: the batch model is
        // the one of the highest-priority oldest request, and the batch
        // pulls that model's requests in priority-class order (arrival
        // order within a class) up to max_batch. Under load the queue
        // backs up and batches grow; an idle engine degrades to batch
        // size 1 with no added latency.
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue_.size(); ++i)
            if (queue_[i].request.priority < queue_[best].request.priority)
                best = i;
        const std::string model_name = queue_[best].request.model;

        std::vector<std::size_t> chosen;
        chosen.reserve(std::min(queue_.size(), config_.max_batch));
        for (std::size_t cls = 0;
             cls < kPriorityCount && chosen.size() < config_.max_batch;
             ++cls) {
            for (std::size_t i = 0;
                 i < queue_.size() && chosen.size() < config_.max_batch;
                 ++i) {
                if (queue_[i].request.model == model_name &&
                    static_cast<std::size_t>(queue_[i].request.priority) ==
                        cls)
                    chosen.push_back(i);
            }
        }
        std::vector<Pending> batch;
        batch.reserve(chosen.size());
        std::vector<bool> taken(queue_.size(), false);
        for (std::size_t i : chosen) {
            batch.push_back(std::move(queue_[i]));
            taken[i] = true;
        }
        std::deque<Pending> rest;
        for (std::size_t i = 0; i < queue_.size(); ++i)
            if (!taken[i])
                rest.push_back(std::move(queue_[i]));
        queue_.swap(rest);

        const std::size_t batch_size = batch.size();
        queued_per_model_[model_name] -= batch_size;
        metrics_.queueDepthAdd(
            -static_cast<std::ptrdiff_t>(batch_size));
        in_flight_ += batch_size;
        mutex_.unlock();
        space_cv_.notify_all();

        runBatch(model_name, std::move(batch));

        mutex_.lock();
        in_flight_ -= batch_size;
        if (queue_.empty() && in_flight_ == 0)
            idle_cv_.notify_all();
    }
    mutex_.unlock();
}

void
InferenceEngine::runBatch(const std::string &model_name,
                          std::vector<Pending> batch)
{
    // One batch can mix plain requests with ensemble member
    // sub-requests for the same model name. Plain requests run on the
    // instance acquired here (hot-swaps take effect per batch); member
    // sub-requests run on the instance their job pinned at submit, so
    // an ensemble request stays deterministic across a member
    // unload/hot-swap mid-flight.
    bool has_plain = false;
    bool has_member = false;
    for (const Pending &pending : batch) {
        if (pending.job)
            has_member = true;
        else
            has_plain = true;
    }

    std::shared_ptr<const DonnModel> shared;
    if (has_plain) {
        try {
            shared = registry_.acquire(model_name);
        } catch (...) {
            if (!has_member) {
                const auto done = std::chrono::steady_clock::now();
                {
                    MutexLock lock(mutex_);
                    stats_.requests += batch.size();
                    stats_.failed += batch.size();
                }
                for (Pending &pending : batch) {
                    const double ms =
                        millisecondsBetween(pending.enqueued, done);
                    metrics_.recordResponse(ServeStatus::UnknownModel, ms);
                    failPending(pending, ServeStatus::UnknownModel,
                                "unknown model: " + model_name, ms);
                }
                return;
            }
            // Mixed batch racing an unload: the plain requests fail
            // UnknownModel below, the pinned member work still runs.
        }
    }

    const auto started = std::chrono::steady_clock::now();
    std::vector<InferResponse> responses(batch.size());
    std::vector<ServeStatus> statuses(batch.size(), ServeStatus::Ok);
    std::vector<std::string> messages(batch.size());
    pool_->parallelFor(batch.size(), [&](std::size_t i) {
        const Pending &pending = batch[i];
        const DonnModel *model =
            pending.job ? pending.job->members[pending.member_index].get()
                        : shared.get();
        if (model == nullptr) {
            statuses[i] = ServeStatus::UnknownModel;
            messages[i] = "unknown model: " + model_name;
            return;
        }
        try {
            // Each pool worker leases scratch from its own thread-local
            // arena; the model instance itself is shared and const.
            PropagationWorkspace &workspace =
                PropagationWorkspace::threadLocal();
            const Grid grid = model->spec().grid();
            WorkspaceField u(workspace, grid.n, grid.n);
            // Member sub-requests carry no frame of their own; encode
            // straight from the parent's image (no per-member copy).
            const RealMap &image = pending.job
                                       ? pending.job->parent.request.image
                                       : pending.request.image;
            model->encodeInto(image, u.get());
            InferResponse &response = responses[i];
            response.logits = model->inferLogitsInPlace(u.get(), workspace);
            response.prediction = static_cast<int>(
                std::max_element(response.logits.begin(),
                                 response.logits.end()) -
                response.logits.begin());
        } catch (const std::exception &e) {
            statuses[i] = ServeStatus::BadInput;
            messages[i] =
                e.what()[0] != '\0' ? e.what() : "inference failed";
        } catch (...) {
            statuses[i] = ServeStatus::BadInput;
            messages[i] = "unknown inference error";
        }
    });

    const auto done = std::chrono::steady_clock::now();
    std::size_t failed = 0;
    for (const ServeStatus status : statuses)
        failed += status == ServeStatus::Ok ? 0 : 1;

    // Recent per-request service time feeds retryAfterSeconds(). The
    // dispatcher is the only writer, so load+store is race-free.
    const double per_request_ms = millisecondsBetween(started, done) /
                                  static_cast<double>(batch.size());
    const double prev = service_ms_ewma_.load(std::memory_order_relaxed);
    service_ms_ewma_.store(prev == 0.0
                               ? per_request_ms
                               : 0.8 * prev + 0.2 * per_request_ms,
                           std::memory_order_relaxed);

    // Stats are committed before any promise resolves, so a client that
    // just observed its future complete reads consistent counters.
    {
        MutexLock lock(mutex_);
        stats_.batches += 1;
        stats_.max_batch = std::max(stats_.max_batch, batch.size());
        stats_.requests += batch.size();
        stats_.failed += failed;
    }
    metrics_.recordBatch(batch.size());

    for (std::size_t i = 0; i < batch.size(); ++i) {
        const double ms = millisecondsBetween(batch[i].enqueued, done);
        metrics_.recordResponse(statuses[i], ms);
        if (batch[i].job) {
            // The last member to resolve fuses and answers the parent.
            ensembleMemberDone(batch[i], statuses[i],
                               std::move(responses[i].logits),
                               batch.size(), messages[i]);
            continue;
        }
        if (statuses[i] != ServeStatus::Ok) {
            failPending(batch[i], statuses[i], messages[i], ms);
            continue;
        }
        InferResponse &response = responses[i];
        response.id = batch[i].request.id;
        response.model = model_name;
        response.status = ServeStatus::Ok;
        response.batch_size = batch.size();
        response.latency_ms = ms;
        resolve(batch[i], std::move(response));
    }
}

} // namespace lightridge
