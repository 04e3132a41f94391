/**
 * @file
 * Unified training engine driving a polymorphic Task (lr.train).
 *
 * One Session implements the recipe formerly copy-pasted across three
 * trainers: the physics-aware calibration pass, Gumbel-softmax tau
 * annealing, the shuffled epoch loop with per-batch Adam steps, per-epoch
 * callbacks (logging / early stop / checkpointing), and the shared
 * data-parallel replica loop — per-worker model replicas propagate
 * disjoint slices of each batch and their gradients are merged in fixed
 * replica order before every optimizer step, so classification,
 * segmentation, and RGB training all parallelize identically.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/task.hpp"
#include "utils/rng.hpp"

namespace lightridge {

/**
 * A training batch produced a non-finite loss or merged gradient.
 * Thrown by Session before that batch's optimizer step, so the
 * parameters keep their last finite values. `epoch()` is 0-based like
 * EpochStats::epoch; `batch()` is the batch index within the epoch.
 */
class TrainingDivergedError : public std::runtime_error
{
  public:
    TrainingDivergedError(int epoch, std::size_t batch,
                          const std::string &what)
        : std::runtime_error("training diverged at epoch " +
                             std::to_string(epoch) + ", batch " +
                             std::to_string(batch) + ": " + what),
          epoch_(epoch), batch_(batch)
    {}

    int epoch() const { return epoch_; }
    std::size_t batch() const { return batch_; }

  private:
    int epoch_;
    std::size_t batch_;
};

/** Task-polymorphic training engine. */
class Session
{
  public:
    /**
     * Per-epoch hook, invoked after evaluation with the epoch's stats.
     * Return false to stop training after the current epoch (early stop).
     */
    using Callback = std::function<bool(const EpochStats &, Session &)>;

    /**
     * @param task workload to train; must outlive the session
     * @param config hyperparameters (also forwarded to the task)
     */
    Session(Task &task, TrainConfig config);
    ~Session();

    Task &task() { return task_; }
    const TrainConfig &config() const { return config_; }

    /** Register a per-epoch callback (run in registration order). */
    void addCallback(Callback callback);

    /** Run the task's calibration pass now (fit() calls this once). */
    void calibrate();

    /**
     * One pass over the training set; returns loss/accuracy. Runs the
     * synchronous data-parallel replica loop when config.workers allows
     * (see TrainConfig::workers), otherwise the serial loop, which is the
     * bitwise reference.
     */
    EpochStats trainEpoch();

    /**
     * Full run: calibration (once), tau annealing, epoch loop, per-epoch
     * evaluation when the task has a test set, callbacks. With
     * TrainConfig::dev_eval_every_batches set, mid-epoch dev-eval
     * snapshots (EpochStats::mid_epoch) are interleaved into the history
     * before their epoch's end-of-epoch entry.
     */
    std::vector<EpochStats> fit();

    /**
     * The engine's worker-resolution rule: 0 sizes from the global
     * thread pool, then the count is clamped by batch and training-set
     * size. Exposed so results reports record the worker count training
     * actually used (execution block) without duplicating the rule.
     */
    static std::size_t resolveWorkers(const TrainConfig &config,
                                      std::size_t train_size);

    /**
     * Seed of the misalignment draw for one batch of vaccinated
     * training: a pure function of (train seed, epoch, batch index),
     * mixed on a stream constant disjoint from the replica-seed stream.
     * Independent of worker count and epoch loop (serial / parallel),
     * so the drawn error sequence is too. Exposed static
     * for the determinism tests.
     */
    static uint64_t perturbationDrawSeed(uint64_t seed, int epoch,
                                         std::size_t batch_index);

  private:
    void annealTau(int epoch);
    std::vector<uint64_t> replicaSeeds(std::size_t workers) const;
    uint64_t perturbationSeed(std::size_t batch_index) const
    {
        return perturbationDrawSeed(config_.seed, epoch_counter_,
                                    batch_index);
    }

    /**
     * Divergence guard, run once per batch by every epoch loop before
     * the optimizer step: throws TrainingDivergedError unless the
     * batch's summed loss and every merged gradient in `params` are
     * finite.
     */
    void checkBatchFinite(Real batch_loss,
                          const std::vector<ParamView> &params,
                          std::size_t batch_index) const;

    /** True when the mid-epoch dev-eval cadence fires after this batch. */
    bool devEvalDue(std::size_t batch_index) const;

    /**
     * Take a mid-epoch dev-eval snapshot: clear any attached
     * perturbation, evaluate, record the stats (running train loss /
     * accuracy over `seen` samples), and invoke the callbacks (their
     * return value is ignored mid-epoch — only end-of-epoch callbacks
     * stop training). Called between batches with no worker in flight.
     */
    void midEpochEval(Real loss_sum, std::size_t correct, std::size_t seen,
                      std::size_t batch_index, double seconds);

    EpochStats trainEpochSerial(const std::vector<std::size_t> &order);
    EpochStats trainEpochParallel(const std::vector<std::size_t> &order,
                                  std::size_t workers);

    Task &task_;
    TrainConfig config_;
    Adam optimizer_;
    Rng rng_;
    bool calibrated_ = false;
    int epoch_counter_ = 0;
    std::vector<Callback> callbacks_;
    std::vector<EpochStats> mid_history_; ///< current epoch's snapshots
};

/**
 * Callback factory: save the task's primary model to path after every
 * epoch whose test metric improved on the best seen so far (checkpointing
 * via DonnModel::save underneath).
 */
Session::Callback checkpointBestCallback(std::string path);

/** Callback factory: stop when train_loss fails to improve for `patience`
 *  consecutive epochs. */
Session::Callback earlyStopCallback(int patience);

} // namespace lightridge
