/**
 * @file
 * DONN system container and fluent builder (lr.models of the paper).
 *
 * A DonnModel is the sequential stack of Figure 2(a): an input encoding
 * plane, D diffractive (or codesign) layers each preceded by a free-space
 * hop, optional auxiliary layers (LayerNorm, optical skip), one final hop,
 * and a detector plane. It owns the trainable parameters and provides the
 * differentiable forward/backward passes the trainer drives.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/codesign_layer.hpp"
#include "core/detector.hpp"
#include "core/device_lut.hpp"
#include "core/diffractive_layer.hpp"
#include "core/layer.hpp"
#include "optics/laser.hpp"
#include "optics/propagator.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {

struct PerturbationRealization;

/**
 * Stable checkpoint header. Every checkpoint written by save() carries a
 * magic string and a format version at the top of the JSON document, so
 * loaders (and the serving ModelRegistry) can reject wrong or truncated
 * files with a clear error instead of failing mid-read. Headerless files
 * from older versions are still accepted as legacy checkpoints.
 */
inline constexpr const char *kCheckpointMagic = "lightridge-checkpoint";
inline constexpr int kCheckpointVersion = 1;

/** Stamp the checkpoint magic + version onto a serialized model. */
void addCheckpointHeader(Json &j);

/**
 * Validate a loaded checkpoint document's header. Accepts headerless
 * legacy documents; throws JsonError (mentioning `origin`) on a wrong
 * magic or an unsupported version.
 */
void verifyCheckpointHeader(const Json &j, const std::string &origin);

/**
 * Parse a checkpoint file into its JSON document with clear errors:
 * unreadable/truncated/non-JSON input throws JsonError prefixed with the
 * path, and the header (when present) is verified.
 */
Json loadCheckpointJson(const std::string &path);

/** Architectural parameters of a DONN system (the DSE design space). */
struct SystemSpec
{
    std::size_t size = 200;     ///< system resolution per side
    Real pixel = 36e-6;         ///< diffraction unit size [m]
    Real distance = 0.30;       ///< inter-plane distance z [m]
    Diffraction approx = Diffraction::RayleighSommerfeld;
    PropagationMethod method = PropagationMethod::TransferFunction;
    std::size_t pad_factor = 1; ///< 1 = paper's same-size spectral algorithm

    Grid grid() const { return Grid{size, pixel}; }

    Json toJson() const;
    static SystemSpec fromJson(const Json &j);
};

/** Sequential DONN system: layers + final hop + detector. */
class DonnModel
{
  public:
    DonnModel(SystemSpec spec, Laser laser);

    const SystemSpec &spec() const { return spec_; }
    const Laser &laser() const { return laser_; }

    /** Append a layer (takes ownership). */
    void addLayer(LayerPtr layer);

    /** Number of stacked layers. */
    std::size_t depth() const { return layers_.size(); }

    Layer *layer(std::size_t i) { return layers_[i].get(); }
    const Layer *layer(std::size_t i) const { return layers_[i].get(); }

    /** Configure the detector plane. */
    void setDetector(DetectorPlane detector);
    DetectorPlane &detector() { return detector_; }
    const DetectorPlane &detector() const { return detector_; }

    /** Shared propagator used for every hop (same z everywhere). */
    std::shared_ptr<const Propagator> hopPropagator() const
    {
        return propagator_;
    }

    /**
     * Attach one sampled misalignment realization across the stack (or
     * detach with nullptr): entry i of realization->layers goes to layer
     * i, final_hop perturbs the layer->detector hop. The realization is
     * externally owned and must outlive every pass made while attached;
     * it is read-only during compute, so perturbed inference may still
     * run concurrently on a shared instance. Clones start detached.
     */
    void setPerturbation(const PerturbationRealization *realization);

    /** Currently attached realization (nullptr when unperturbed). */
    const PerturbationRealization *perturbation() const
    {
        return perturb_;
    }

    /**
     * Resize a native-resolution image to the system grid and encode it
     * onto the source beam (data_to_cplex). The source profile is
     * computed once at construction and cached, so per-sample encoding
     * no longer re-evaluates the beam transcendentals.
     */
    Field encode(const RealMap &image) const;

    /** In-place encode into a reused buffer (resized at most once). */
    void encodeInto(const RealMap &image, Field &out) const;

    /** Field at the detector plane (after the final hop). */
    Field forwardField(const Field &input, bool training = false);

    /**
     * In-place forward through the stack: `u` holds the encoded input on
     * entry and the detector-plane field on return. With a warm
     * workspace the full pass performs zero heap allocations.
     */
    void forwardFieldInPlace(Field &u, bool training,
                             PropagationWorkspace &workspace);

    /** In-place thread-safe inference counterpart. */
    void inferFieldInPlace(Field &u, PropagationWorkspace &workspace) const;

    /** In-place detector logits over forwardFieldInPlace(); `u` is left
     *  holding the detector-plane field. */
    std::vector<Real> forwardLogitsInPlace(Field &u, bool training,
                                           PropagationWorkspace &workspace);

    /**
     * Const, thread-safe in-place inference logits: propagates `u`
     * through the stack and reads the detector, with no mutable model
     * state touched — the serving engine's per-request path, so one
     * shared model instance serves every worker without cloning.
     * Bitwise-identical to forwardLogitsInPlace(u, false, ws).
     */
    std::vector<Real> inferLogitsInPlace(Field &u,
                                         PropagationWorkspace &workspace)
        const;

    /**
     * In-place backprop from dL/dlogits: `g` is used as the gradient
     * carrier (its entry contents are ignored and overwritten with the
     * detector-plane gradient before the stack unwind). Must not alias
     * the detector's cached forward field.
     */
    void backwardFromLogitsInPlace(const std::vector<Real> &dlogits,
                                   Field &g, PropagationWorkspace &workspace);

    /** In-place backprop from a detector-plane Wirtinger gradient. */
    void backwardFieldInPlace(Field &g, PropagationWorkspace &workspace);

    /**
     * Thread-safe inference forward: numerically identical to
     * forwardField(input, false) but const, so independent samples can
     * run concurrently on one shared model.
     */
    Field inferField(const Field &input) const;

    /**
     * Batched inference: propagates every input through the stack, with
     * independent samples distributed across the thread pool (the paper's
     * batched emulation speedup). Output order matches input order and is
     * bitwise-identical to calling inferField() serially.
     * @param pool worker pool; nullptr uses ThreadPool::global()
     */
    std::vector<Field> forwardFieldBatch(const std::vector<Field> &inputs,
                                         ThreadPool *pool = nullptr) const;

    /** Detector logits; caches activations when training. */
    std::vector<Real> forwardLogits(const Field &input,
                                    bool training = false);

    /** Argmax class for an encoded input. */
    int predict(const Field &input);

    /** Backprop from dL/dlogits through detector, final hop, and layers. */
    void backwardFromLogits(const std::vector<Real> &dlogits);

    /**
     * Backprop from a Wirtinger gradient at the detector plane (used by
     * segmentation losses and the multi-channel container).
     */
    void backwardField(const Field &grad_at_detector);

    /**
     * Deep copy sharing the (immutable) propagators: layers and detector
     * are cloned, parameters and gradients copied. Replicas train
     * independently; see Session for the data-parallel batch recipe.
     */
    DonnModel clone() const;

    /** All trainable parameters of all layers. */
    std::vector<ParamView> params();

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** Serialize spec + laser + layers + detector. */
    Json toJson() const;

    /** Reconstruct a model (propagators rebuilt from the spec). */
    static DonnModel fromJson(const Json &j);

    /** Save/load helpers. */
    bool save(const std::string &path) const;
    static DonnModel load(const std::string &path);

  private:
    /** Shell constructor for clone(): adopts an existing propagator. */
    DonnModel(SystemSpec spec, Laser laser,
              std::shared_ptr<const Propagator> propagator);

    SystemSpec spec_;
    Laser laser_;
    std::shared_ptr<const Propagator> propagator_;
    Field source_profile_; ///< cached illumination profile of the laser
    std::vector<LayerPtr> layers_;
    DetectorPlane detector_;
    /** Attached misalignment realization (externally owned). */
    const PerturbationRealization *perturb_ = nullptr;
};

/**
 * Fluent DSL-style builder mirroring the paper's front end:
 *
 *   auto model = ModelBuilder(spec, laser)
 *                    .diffractiveLayers(5, 1.0, &rng)
 *                    .detectorGrid(10, 8)
 *                    .build();
 */
class ModelBuilder
{
  public:
    ModelBuilder(SystemSpec spec, Laser laser);

    /** Append d raw diffractive layers (lr.layers.diffractlayer_raw). */
    ModelBuilder &diffractiveLayers(std::size_t d, Real gamma = 1.0,
                                    Rng *rng = nullptr);

    /** Append d hardware-aware codesign layers (lr.layers.diffractlayer). */
    ModelBuilder &codesignLayers(std::size_t d, const DeviceLut &lut,
                                 Real tau = 1.0, Real gamma = 1.0,
                                 Rng *rng = nullptr);

    /** Append a training-only LayerNorm. */
    ModelBuilder &layerNorm();

    /** Evenly spaced square detector regions for num_classes classes. */
    ModelBuilder &detectorGrid(std::size_t num_classes,
                               std::size_t det_size);

    /** Custom detector regions. */
    ModelBuilder &detectorRegions(std::vector<DetectorRegion> regions);

    /**
     * Finalize into a model.
     * @throws std::logic_error when no detector was configured (the
     *         failure used to surface only at the first forwardLogits).
     */
    DonnModel build();

  private:
    DonnModel model_;
    bool has_detector_ = false;
};

} // namespace lightridge
