/**
 * @file
 * Versioned public serving API: the request/response surface every
 * LightRidge serving front end speaks — the in-process
 * `InferenceEngine::submit` path, the JSON-lines CLI, and the HTTP/1.1
 * socket server all exchange exactly these types.
 *
 * v2 (this header) foregrounds SLA-aware scheduling: an InferRequest
 * carries a steady-clock `deadline` budget and a `Priority` class, and
 * an InferResponse reports failure through a typed `ServeStatus` code.
 * The new fields default to "no deadline / normal priority".
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/field.hpp"

namespace lightridge {

/** Serving API version this header describes (HTTP routes are /v1/...;
 *  the request/response *schema* version is what this tracks). */
inline constexpr int kServeApiVersion = 2;

/** Typed completion code of a served request. */
enum class ServeStatus : std::uint8_t {
    Ok = 0,               ///< inference ran; logits/prediction valid
    DeadlineExceeded = 1, ///< expired before reaching a batch slot
    Overloaded = 2,       ///< shed by admission control (quota/queue)
    UnknownModel = 3,     ///< no such model in the registry
    BadInput = 4,         ///< request rejected or inference failed
};

/** Number of ServeStatus values (metrics arrays are indexed by status). */
inline constexpr std::size_t kServeStatusCount = 5;

/** Stable wire name of a status code ("ok", "deadline_exceeded", ...). */
const char *serveStatusName(ServeStatus status);

/** Scheduling class of a request. Lower value = more urgent; admission
 *  control sheds the least urgent queued work first, and micro-batches
 *  are formed most-urgent-first. */
enum class Priority : std::uint8_t {
    Interactive = 0, ///< latency-sensitive foreground traffic
    Batch = 1,       ///< default: throughput traffic
    BestEffort = 2,  ///< first to shed under pressure
};

/** Number of priority classes. */
inline constexpr std::size_t kPriorityCount = 3;

/** Stable wire name of a priority class ("interactive", "batch",
 *  "best_effort"). */
const char *priorityName(Priority priority);

/**
 * Parse a wire priority name.
 * @throws std::invalid_argument on an unknown name
 */
Priority priorityFromName(const std::string &name);

/** How an ensemble combines its members' detector readouts. */
enum class FusionRule : std::uint8_t {
    MeanLogits = 0, ///< arithmetic mean of the raw member logits
    MeanProbs = 1,  ///< mean of the per-member softmax distributions
    Vote = 2,       ///< one argmax vote per member, fused logits are
                    ///< the per-class vote counts
};

/** Number of fusion rules. */
inline constexpr std::size_t kFusionRuleCount = 3;

/** Stable wire name of a fusion rule ("mean_logits", "mean_probs",
 *  "vote"). */
const char *fusionRuleName(FusionRule rule);

/**
 * Parse a wire fusion-rule name.
 * @throws std::invalid_argument on an unknown name
 */
FusionRule fusionRuleFromName(const std::string &name);

/**
 * Declaration of an ensemble: one logical model name that fans a
 * request out to N registered member models and fuses their logits
 * into one response.
 *
 * Per-member status semantics: the fused response is Ok only when
 * every member produced logits. Any member failure — DeadlineExceeded
 * from the shared budget, Overloaded from a member-model quota shed,
 * UnknownModel from an unload race, BadInput from an inference error —
 * fails the whole fused response with that member's status (the first
 * failure in member order wins) and an `error` naming the member.
 */
struct EnsembleSpec
{
    std::string name;                 ///< logical (routable) model name
    std::vector<std::string> members; ///< registered member model names
    FusionRule fusion = FusionRule::MeanLogits;
};

/**
 * Fuse per-member logit vectors into `out` (resized to the class
 * count). Deterministic operation order — members are consumed in
 * vector order, so two calls over the same inputs are bitwise
 * identical, which is what pins the engine's fused responses against
 * offline fusion in tests:
 *  - mean_logits: sum member logits class-wise, then scale by 1/N.
 *  - mean_probs: per member, a max-stabilized softmax; the per-class
 *    probabilities are accumulated pre-scaled by 1/N.
 *  - vote: per member, argmax (first max wins ties); `out[c]` is the
 *    number of members that voted for class c.
 * @throws std::invalid_argument when `member_logits` is empty or the
 *         member vectors disagree on class count
 */
void fuseLogits(FusionRule rule,
                const std::vector<std::vector<Real>> &member_logits,
                std::vector<Real> &out);

/** One inference request: a raw amplitude frame for a named model. */
struct InferRequest
{
    std::string model;    ///< registry name to run against
    RealMap image;        ///< native-resolution amplitude frame (encode
                          ///< resizes to the model's system grid)
    std::uint64_t id = 0; ///< caller-chosen correlation id

    /**
     * Completion budget measured from submit() on the steady clock.
     * Zero means "no deadline". A request whose budget has elapsed is
     * answered with ServeStatus::DeadlineExceeded by the dispatcher's
     * expiry sweep and never occupies a batch slot (a non-positive
     * budget is therefore expired on arrival).
     */
    std::chrono::steady_clock::duration deadline{};

    /** Scheduling class; see Priority. */
    Priority priority = Priority::Batch;
};

/** Result of one served request. Non-Ok responses carry an empty logits
 *  vector, prediction -1, and a human-readable `error`. */
struct InferResponse
{
    std::uint64_t id = 0;
    std::string model;
    ServeStatus status = ServeStatus::Ok;
    std::string error;          ///< empty when status == Ok
    std::vector<Real> logits;   ///< detector readout
    int prediction = -1;        ///< argmax class
    double latency_ms = 0;      ///< submit-to-completion wall time
    std::size_t batch_size = 0; ///< micro-batch the request rode in
                                ///< (0 when it never reached a batch;
                                ///< largest member batch for ensembles)
    std::size_t fan_out = 0;    ///< member sub-requests an ensemble
                                ///< fanned out to (0 for plain models)

    bool ok() const { return status == ServeStatus::Ok; }
};

} // namespace lightridge
