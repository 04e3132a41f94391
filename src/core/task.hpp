/**
 * @file
 * Task abstraction for the unified training front end (lr.train).
 *
 * A Task binds one workload — model, training data, loss, and metrics —
 * behind a polymorphic interface the Session engine can drive without
 * knowing whether it is classifying digits on a single stack, mapping
 * street scenes to masks, or training the three-channel RGB architecture.
 * All three tasks share one data-parallel replica engine (ReplicaTask:
 * cloned models with private noise streams), generic over the model
 * type, so every workload gets data-parallel batch training.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/loss.hpp"
#include "core/model.hpp"
#include "core/multichannel.hpp"
#include "data/source.hpp"
#include "optics/perturbation.hpp"

namespace lightridge {

/** Hyperparameters shared by all training loops. */
struct TrainConfig
{
    int epochs = 5;
    std::size_t batch = 32;
    Real lr = 0.01;
    LossKind loss = LossKind::SoftmaxMse;
    uint64_t seed = 7;
    bool shuffle = true;

    /**
     * Enable the physics-aware calibration (complex-valued regularization).
     * Disabled reproduces the [34]/[68] baseline training behaviour.
     */
    bool calibrate = true;

    /** Target mean top-logit after calibration. */
    Real calib_target = 4.0;

    /** Calibration probe size; 0 keeps the task default (16 / 8). */
    std::size_t calib_probe = 0;

    /** Per-layer gamma; <= 0 keeps layer defaults. */
    Real gamma = 0.0;

    /** Gumbel-softmax temperature annealing (codesign layers only). */
    Real tau_start = 2.0;
    Real tau_end = 0.5;

    /**
     * Data-parallel workers per batch: independent samples of one batch
     * propagate concurrently on per-worker model replicas, and their
     * gradients are merged (in fixed replica order) before each optimizer
     * step. 0 sizes from the global thread pool; 1 forces the serial loop.
     *
     * Results are deterministic for a fixed worker count, but gradient
     * accumulation order (and per-replica noise streams) depend on it, so
     * runs on machines with different core counts diverge under the
     * default 0. Set workers explicitly (1 = the bit-reproducible serial
     * reference) when cross-machine reproducibility matters more than
     * throughput.
     */
    std::size_t workers = 0;

    /**
     * Evaluate on the dev (test) set every N batches inside an epoch, on
     * top of the end-of-epoch evaluation. Mid-epoch stats flow through
     * the same epoch-callback machinery tagged mid_epoch (their return
     * value does not stop training; only end-of-epoch callbacks do). 0
     * (the default) disables the cadence and is bitwise identical to not
     * having the feature: evaluation allocates no training state and the
     * optimizer path is untouched.
     */
    std::size_t dev_eval_every_batches = 0;

    /** Print per-epoch progress lines. */
    bool verbose = false;
};

/** Per-epoch training statistics. */
struct EpochStats
{
    int epoch = 0;
    Real train_loss = 0;
    Real train_acc = 0;
    Real test_acc = 0;  ///< primary test metric (top-1 accuracy or IoU)
    Real test_top3 = 0; ///< top-3 accuracy (classification tasks only)
    double seconds = 0;

    /**
     * True for a dev-eval snapshot taken mid-epoch (see
     * TrainConfig::dev_eval_every_batches); `batch` is then the number of
     * batches consumed when the snapshot was taken, and the train
     * loss/accuracy cover only the batches seen so far this epoch.
     */
    bool mid_epoch = false;
    std::size_t batch = 0;
};

/** Outcome of one training sample's forward/backward pass. */
struct SampleResult
{
    Real loss = 0;
    bool hit = false; ///< top-1 correct (classification-style tasks)
};

/** Reduced test-set metrics of a task. */
struct TaskMetrics
{
    Real primary = 0; ///< top-1 accuracy or mean IoU
    Real top3 = 0;    ///< top-3 accuracy (classification-style tasks)
};

/**
 * One training/evaluation workload the Session engine can drive.
 *
 * The contract mirrors the shared trainer recipe: the Session shuffles
 * sample indices, asks the task to run forward/backward per sample
 * (accumulating parameter gradients), steps its optimizer over params(),
 * and reduces test metrics through evaluate(). For the data-parallel
 * path the task materializes N independent replicas; replica gradients
 * are merged into the primary model in fixed order.
 */
class Task
{
  public:
    virtual ~Task();

    /** Stable task-kind tag ("classification", "segmentation", "rgb"). */
    virtual std::string kind() const = 0;

    /** Number of training samples. */
    virtual std::size_t trainSize() const = 0;

    /**
     * The training-data source behind this task. The Session drives its
     * epoch/staging lifecycle (two-level shuffle layout, batch staging,
     * prefetch) on the main thread between batches; in-memory sources
     * make every lifecycle call a no-op, so tasks over synthesized
     * datasets train exactly as before. A null stream (the default for
     * task stubs) trains over the flat index order with no staging.
     */
    virtual DataSource *trainStream() { return nullptr; }

    /** True when a held-out test set is bound. */
    virtual bool hasTest() const = 0;

    /** Stash the hyperparameters (called once by the Session). */
    void configure(const TrainConfig &config) { config_ = config; }
    const TrainConfig &config() const { return config_; }

    /** Physics-aware calibration pass over a probe of the data. */
    virtual void calibrate() = 0;

    /** Trainable parameters of the primary model. */
    virtual std::vector<ParamView> params() = 0;

    /** Zero the primary model's parameter gradients. */
    virtual void zeroGrad() = 0;

    /** Forward/backward one training sample on the primary model. */
    virtual SampleResult trainSample(std::size_t index) = 0;

    /** Build per-worker model replicas (one seed per replica). */
    virtual void buildReplicas(const std::vector<uint64_t> &seeds) = 0;

    /** Parameter views of replica r (cached, stable per epoch). */
    virtual std::vector<ParamView> replicaParams(std::size_t r) = 0;

    /** Zero replica r's parameter gradients. */
    virtual void zeroReplicaGrad(std::size_t r) = 0;

    /** Forward/backward one training sample on replica r. */
    virtual SampleResult trainSampleOn(std::size_t r, std::size_t index) = 0;

    /** Push primary parameters (and calibration state) to every replica. */
    virtual void syncReplicas() = 0;

    /** Gumbel-softmax temperature annealing hook (codesign layers). */
    virtual void setTau(Real tau) = 0;

    /**
     * True when a misalignment spec with at least one active error axis
     * is bound (vaccinated training). The Session then draws one
     * realization per batch through samplePerturbation().
     */
    virtual bool perturbationActive() const { return false; }

    /**
     * Draw the per-batch misalignment realization from the given seed
     * and attach it to the primary model and every live replica. The
     * seed is a pure function of (train seed, epoch, batch index), so
     * the drawn error sequence is identical at any worker count.
     * No-op on tasks without a bound spec.
     */
    virtual void samplePerturbation(uint64_t draw_seed)
    {
        (void)draw_seed;
    }

    /** Detach perturbations everywhere (evaluation runs clean). */
    virtual void clearPerturbation() {}

    /** Test metrics; zeros when !hasTest(). */
    virtual TaskMetrics evaluate() = 0;

    /** Checkpoint the primary model (epoch-callback checkpointing). */
    virtual bool save(const std::string &path) const = 0;

  protected:
    TrainConfig config_;
};

/** Visit every layer of a model, descending into skip-block interiors. */
void forEachModelLayer(DonnModel &model,
                       const std::function<void(Layer *)> &fn);

/** Apply gamma to every diffractive/codesign layer of a model. */
void applyModelGamma(DonnModel &model, Real gamma);

/** Set Gumbel-softmax temperature on every codesign layer of a model. */
void applyModelTau(DonnModel &model, Real tau);

/** Re-point every noise-enabled codesign layer at the given rng. */
void bindModelNoiseRng(DonnModel &model, Rng *rng);

/**
 * Hop propagators feeding each top-level layer of a model (nullptr for
 * non-optical slots, e.g. layer norms and skip blocks, which take no
 * perturbation): the layer-slot geometry a PerturbationSampler is built
 * from. The final layer->detector hop is model.hopPropagator().
 */
std::vector<const Propagator *> modelLayerHops(const DonnModel &model);

/**
 * The single-stack models a model is made of: the model itself, or the
 * three channel stacks of an RGB model. Noise-rng binding, tau and the
 * detector calibration (amp_factor) apply stack by stack.
 */
std::vector<DonnModel *> modelStacks(DonnModel &model);
std::vector<DonnModel *> modelStacks(MultiChannelDonn &model);

/**
 * Shared replica machinery, generic over the primary model type
 * (DonnModel or MultiChannelDonn). Derived tasks implement sampleStep()
 * against whichever model instance (primary or replica) the Session
 * schedules.
 */
template <class Model>
class ReplicaTask : public Task
{
  public:
    Model &model() { return model_; }

    std::vector<ParamView> params() override { return model_.params(); }
    void zeroGrad() override { model_.zeroGrad(); }
    SampleResult trainSample(std::size_t index) override
    {
        return sampleStep(model_, index);
    }

    void buildReplicas(const std::vector<uint64_t> &seeds) override;
    std::vector<ParamView> replicaParams(std::size_t r) override
    {
        return replicas_[r]->params;
    }
    void zeroReplicaGrad(std::size_t r) override
    {
        replicas_[r]->model.zeroGrad();
    }
    SampleResult trainSampleOn(std::size_t r, std::size_t index) override
    {
        return sampleStep(replicas_[r]->model, index);
    }
    void syncReplicas() override;

    void setTau(Real tau) override;
    bool save(const std::string &path) const override
    {
        return model_.save(path);
    }

  protected:
    explicit ReplicaTask(Model &model) : model_(model) {}

    /** Forward/backward one sample against the given model instance. */
    virtual SampleResult sampleStep(Model &model, std::size_t index) = 0;

    /**
     * One data-parallel training worker: a full model replica (parameters
     * copied, propagators shared) plus a private noise source so Gumbel
     * sampling never races across threads. Parameter views are cached
     * because the layer set of a replica is fixed.
     */
    struct Replica
    {
        Model model;
        Rng rng;
        std::vector<ParamView> params;

        Replica(const Model &source, uint64_t seed);
    };

    Model &model_;
    std::vector<std::unique_ptr<Replica>> replicas_;
};

extern template class ReplicaTask<DonnModel>;
extern template class ReplicaTask<MultiChannelDonn>;

/**
 * Replica base of the single-stack tasks (classification, segmentation),
 * plus misalignment-vaccinated training over the stack's hop geometry.
 */
class DonnTaskBase : public ReplicaTask<DonnModel>
{
  public:
    /**
     * Bind a misalignment spec for vaccinated training: builds the
     * per-batch sampler from the model's hop geometry. A spec with no
     * active axis unbinds (training reverts to the exact unperturbed
     * path). Throws for Fraunhofer systems.
     */
    void setPerturbationSpec(const PerturbationSpec &spec);

    bool perturbationActive() const override
    {
        return perturb_sampler_ != nullptr;
    }
    void samplePerturbation(uint64_t draw_seed) override;
    void clearPerturbation() override;

    /** Realization currently attached (nullptr when clean); tests. */
    const PerturbationRealization *currentPerturbation() const
    {
        return model_.perturbation();
    }

  protected:
    explicit DonnTaskBase(DonnModel &model) : ReplicaTask(model) {}

    /**
     * Vaccination state: the sampler (null = no spec bound) and the one
     * shared realization storage every batch draw overwrites. Replicas
     * attach to the same storage — it is read-only during compute and
     * the Session only redraws between batches, when no worker is in
     * flight.
     */
    std::unique_ptr<PerturbationSampler> perturb_sampler_;
    PerturbationRealization perturb_realization_;
};

/** Single-stack image classification workload (the paper's main task). */
class ClassificationTask : public DonnTaskBase
{
  public:
    /** Train from an in-memory dataset (borrowed; wrapped in a source). */
    ClassificationTask(DonnModel &model, const ClassDataset &train,
                       const ClassDataset *test = nullptr);

    /** Train from any classification source (borrowed; e.g. sharded). */
    ClassificationTask(DonnModel &model, ClassSource &train,
                       const ClassDataset *test = nullptr);

    std::string kind() const override { return "classification"; }
    std::size_t trainSize() const override { return source_->size(); }
    DataSource *trainStream() override { return source_; }
    bool hasTest() const override { return test_ != nullptr; }

    /**
     * Calibrate detector amp_factor (and optionally per-layer gamma) on a
     * probe of the training set so logits land in a numerically healthy
     * softmax range regardless of system depth (Section 3.2).
     */
    void calibrate() override;

    /** Top-1 and top-3 accuracy over the bound test set. */
    TaskMetrics evaluate() override;

  protected:
    SampleResult sampleStep(DonnModel &model, std::size_t index) override;

  private:
    std::unique_ptr<InMemoryClassSource> own_source_; ///< legacy ctor only
    ClassSource *source_;
    const ClassDataset *test_;
};

/** Image-to-image workload (all-optical segmentation, Section 5.6.2). */
class SegmentationTask : public DonnTaskBase
{
  public:
    /** Train from an in-memory dataset (borrowed; wrapped in a source). */
    SegmentationTask(DonnModel &model, const SegDataset &train,
                     const SegDataset *test = nullptr);

    /** Train from any segmentation source (borrowed; e.g. sharded). */
    SegmentationTask(DonnModel &model, SegSource &train,
                     const SegDataset *test = nullptr);

    std::string kind() const override { return "segmentation"; }
    std::size_t trainSize() const override { return source_->size(); }
    DataSource *trainStream() override { return source_; }
    bool hasTest() const override { return test_ != nullptr; }

    /** Calibrate the intensity scale so outputs can reach mask range. */
    void calibrate() override;

    /** Mean IoU over the bound test set. */
    TaskMetrics evaluate() override;

    /**
     * Predicted mask: detector-plane intensity auto-exposed so its mean
     * matches the expected mask brightness (camera exposure control;
     * also bridges the training-only LayerNorm scale at inference).
     */
    RealMap predictMask(const RealMap &image);

    /**
     * Mean intersection-over-union of thresholded predictions, the
     * segmentation quality metric reported for Fig. 13.
     */
    Real evaluateIou(const SegDataset &data, Real threshold = 0.5);

    /** Mean per-pixel MSE against the masks. */
    Real evaluateMse(const SegDataset &data);

  protected:
    SampleResult sampleStep(DonnModel &model, std::size_t index) override;

  private:
    std::unique_ptr<InMemorySegSource> own_source_; ///< legacy ctor only
    SegSource *source_;
    const SegDataset *test_;
    Real intensity_scale_ = 1.0;
    Real mask_mean_ = 0.25; ///< expected mask brightness (auto-exposure)
};

/** Multi-channel RGB classification workload (Section 5.6.1). */
class RgbTask : public ReplicaTask<MultiChannelDonn>
{
  public:
    /** Train from an in-memory dataset (borrowed; wrapped in a source). */
    RgbTask(MultiChannelDonn &model, const RgbDataset &train,
            const RgbDataset *test = nullptr);

    /** Train from any RGB source (borrowed; e.g. sharded). */
    RgbTask(MultiChannelDonn &model, RgbSource &train,
            const RgbDataset *test = nullptr);

    std::string kind() const override { return "rgb"; }
    std::size_t trainSize() const override { return source_->size(); }
    DataSource *trainStream() override { return source_; }
    bool hasTest() const override { return test_ != nullptr; }

    void calibrate() override;

    /** Top-1 and top-3 accuracy over the bound test set. */
    TaskMetrics evaluate() override;

  protected:
    SampleResult sampleStep(MultiChannelDonn &model,
                            std::size_t index) override;

  private:
    std::unique_ptr<InMemoryRgbSource> own_source_; ///< legacy ctor only
    RgbSource *source_;
    const RgbDataset *test_;
};

/** Accuracy of a model over a dataset (optionally with detector noise). */
Real evaluateAccuracy(DonnModel &model, const ClassDataset &data,
                      Real noise_frac = 0.0, Rng *rng = nullptr);

/** Accuracy and mean prediction confidence (Fig. 7). */
struct EvalResult
{
    Real accuracy = 0;
    Real confidence = 0;
};
EvalResult evaluateWithConfidence(DonnModel &model, const ClassDataset &data,
                                  Real noise_frac = 0.0, Rng *rng = nullptr);

/**
 * Top-k accuracy for a single-stack classification model (top-k existed
 * only for the RGB architecture before; Table 5 reports top-1/3/5).
 */
Real evaluateTopK(DonnModel &model, const ClassDataset &data, std::size_t k);

/** Top-1 accuracy for an RGB model. */
Real evaluateRgbAccuracy(MultiChannelDonn &model, const RgbDataset &data);

/** Top-k accuracy for an RGB model (Table 5 reports top-1/3/5). */
Real evaluateRgbTopK(MultiChannelDonn &model, const RgbDataset &data,
                     std::size_t k);

} // namespace lightridge
