/**
 * @file
 * Named-model registry for the inference serving subsystem.
 *
 * A ModelRegistry owns the trained DONN systems a serving process exposes,
 * keyed by name. Models are held behind shared_ptr<const DonnModel>, so a
 * registration is an atomic publish and an unload (or hot-swap) never
 * invalidates in-flight work: every request batch acquires its own
 * reference and the old instance lives until the last batch drops it.
 * Because the inference path is const and thread-safe (Layer::inferInPlace
 * plus the shared-instance modulation caches), one registered instance
 * serves every engine worker concurrently — no per-request or per-worker
 * clones.
 */
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "serve/api.hpp"
#include "utils/sync.hpp"

namespace lightridge {

/** Error thrown when a request names a model the registry doesn't hold. */
class UnknownModelError : public std::runtime_error
{
  public:
    explicit UnknownModelError(const std::string &name)
        : std::runtime_error("unknown model: " + name)
    {}
};

/** An ensemble resolved for one request: the declared spec plus one
 *  pinned reference per member, acquired atomically under one registry
 *  lock (a concurrent member hot-swap never yields a mixed view). The
 *  pinned instances stay valid across unload/hot-swap for as long as
 *  the holder keeps them, exactly like a plain acquire(). */
struct ResolvedEnsemble
{
    EnsembleSpec spec;
    std::vector<std::shared_ptr<const DonnModel>> members;
};

/** Thread-safe registry of named, ref-counted, hot-swappable models. */
class ModelRegistry
{
  public:
    ModelRegistry() = default;

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Publish a model under `name` (atomic hot-swap when the name is
     * already taken: new requests see the new instance, in-flight batches
     * finish on the old one).
     */
    void registerModel(const std::string &name, DonnModel model);

    /** Publish an already-shared instance (testing / advanced callers). */
    void registerShared(const std::string &name,
                        std::shared_ptr<const DonnModel> model)
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Load a checkpoint file and publish it under `name`.
     * @throws JsonError on a missing/truncated/wrong-magic file (see
     *         loadCheckpointJson)
     */
    void registerCheckpoint(const std::string &name,
                            const std::string &path);

    /**
     * Declare an ensemble (see serve/api.hpp EnsembleSpec). Validated
     * against the registry's current contents:
     *  - members must be non-empty and each currently registered as a
     *    plain model (ensembles of ensembles are rejected, as is an
     *    ensemble that names itself as a member);
     *  - the ensemble name must not collide with a registered model
     *    (and a later registerModel under an ensemble name throws);
     *  - members must agree on the detector class count, or fusion
     *    would be meaningless.
     * Re-declaring an existing ensemble name hot-swaps the spec, the
     * same way registerModel hot-swaps an instance.
     * @throws std::invalid_argument on any violation
     */
    void registerEnsemble(EnsembleSpec spec) LIGHTRIDGE_EXCLUDES(mutex_);

    /** True when `name` is a declared ensemble. */
    bool isEnsemble(const std::string &name) const
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Resolve an ensemble for one request: snapshot the spec and pin
     * every member instance under one lock.
     * @throws UnknownModelError when `name` is not an ensemble or a
     *         member was unloaded after the ensemble was declared (the
     *         message names the missing member)
     */
    ResolvedEnsemble resolveEnsemble(const std::string &name) const
        LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Drop the registry's reference to `name` (model or ensemble). A
     * member model may be unloaded while its ensembles stay declared:
     * in-flight ensemble requests finish on their pinned instances and
     * later ones are answered UnknownModel at resolution.
     * @return false when the name was not registered
     */
    bool unload(const std::string &name) LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Acquire a serving reference to a plain model. The returned
     * instance is immutable and stays valid for as long as the caller
     * holds the pointer, even across unload/hot-swap. Ensemble names
     * have no single instance and are rejected — resolve them with
     * resolveEnsemble().
     * @throws UnknownModelError when the name is not a registered model
     */
    std::shared_ptr<const DonnModel> acquire(const std::string &name) const
        LIGHTRIDGE_EXCLUDES(mutex_);

    /** True when `name` is currently registered (model or ensemble). */
    bool has(const std::string &name) const LIGHTRIDGE_EXCLUDES(mutex_);

    /** Registered names, models and ensembles together (sorted). */
    std::vector<std::string> names() const LIGHTRIDGE_EXCLUDES(mutex_);

    /** Number of registered names (models + ensembles). */
    std::size_t size() const LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Outstanding external references to a registered model (0 when only
     * the registry holds it). Diagnostic: an unload is "busy" when this
     * is non-zero, but it is still safe — the instance is freed when the
     * last holder drops it.
     */
    std::size_t externalRefCount(const std::string &name) const
        LIGHTRIDGE_EXCLUDES(mutex_);

  private:
    mutable Mutex mutex_;
    std::map<std::string, std::shared_ptr<const DonnModel>> models_
        LIGHTRIDGE_GUARDED_BY(mutex_);
    std::map<std::string, EnsembleSpec> ensembles_
        LIGHTRIDGE_GUARDED_BY(mutex_);
};

} // namespace lightridge
