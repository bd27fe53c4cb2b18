/**
 * @file
 * Sharded estimator registry: the serving-side home of one
 * OnlinePowerEstimator per fleet machine, keyed by machine id.
 *
 * Lookups are lock-striped: machine ids hash onto a fixed set of
 * shards, each with its own mutex, so concurrent producers resolving
 * different machines rarely contend. Entry addresses are stable for
 * the life of the registry (entries are never removed), which lets
 * the ingestion queues carry raw MachineEntry pointers.
 *
 * Each entry carries its own mutex guarding the (stateful) estimator.
 * Model hot-swap takes only that entry mutex, so swapping one
 * machine's model serializes with that machine's predictions but
 * never stalls ingestion or any other machine.
 */
#ifndef CHAOS_SERVE_REGISTRY_HPP
#define CHAOS_SERVE_REGISTRY_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"

namespace chaos::serve {

/**
 * One registered machine: id + mutex-guarded online estimator, plus
 * the serving-state the remediation autopilot drives — a quarantine
 * substitute, a shadow (canary) candidate model, and a bounded
 * reference window of recent (features, metered watts) pairs for
 * background retraining.
 *
 * Locking convention: public methods take the entry mutex themselves;
 * methods suffixed "Locked" must only be called from code already
 * holding it (inside withEstimator, i.e. the drain loop) — calling
 * them unlocked is a data race, calling the unsuffixed ones from
 * inside withEstimator deadlocks.
 */
class MachineEntry
{
  public:
    MachineEntry(std::string machineId, std::size_t shard,
                 MachinePowerModel model, OnlineEstimatorConfig config)
        : id_(std::move(machineId)), shard_(shard),
          estimator_(std::move(model), std::move(config))
    {}

    /** The machine id this entry was registered under. */
    const std::string &id() const { return id_; }

    /** EstimatorRegistry::shardOf(id()), fixed at registration. */
    std::size_t shard() const { return shard_; }

    /**
     * Run @p fn with exclusive access to the estimator. All estimator
     * use (predictions, hot-swap, snapshot reads) goes through here.
     */
    template <typename Fn>
    auto
    withEstimator(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return fn(estimator_);
    }

    /**
     * Opaque per-machine state owned by the installed SampleObserver
     * (nullptr when unmonitored). Written under the entry mutex (via
     * withEstimator) at attach/detach time and read by onSample on
     * drain threads that already hold that mutex, so plain loads and
     * stores suffice. Spares the observer a per-sample map lookup on
     * the serving hot path.
     */
    void setObserverState(void *state) { observerState_ = state; }
    void *observerState() const { return observerState_; }

    // ---- Backpressure attribution ------------------------------------
    /**
     * Count one sample of this machine's lost to drop-oldest
     * backpressure. Called by producers WITHOUT the entry mutex, hence
     * atomic.
     */
    void
    noteDrop()
    {
        drops_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Samples of this machine dropped by queue backpressure. */
    std::uint64_t
    droppedSamples() const
    {
        return drops_.load(std::memory_order_relaxed);
    }

    // ---- Quarantine --------------------------------------------------
    /**
     * Isolate this machine's own estimate from the cluster sum: until
     * liftQuarantine(), servedWattsLocked() reports @p substitute's
     * prediction on each incoming sample instead of the deployed
     * model's. With a null substitute the last-known-good estimate
     * (the mean of recent healthy estimates) is frozen and served.
     * The deployed model keeps evaluating normally underneath so the
     * monitor and any canary still see it.
     */
    void engageQuarantine(
        std::shared_ptr<const MachinePowerModel> substitute);

    /** Serve the machine's own estimate again (idempotent). */
    void liftQuarantine();

    /** True while quarantined (takes the entry mutex). */
    bool quarantined();

    // ---- Shadow (canary) evaluation ----------------------------------
    /** Rolling shadow comparison of candidate vs incumbent. */
    struct ShadowReport
    {
        bool active = false;
        std::uint64_t refSamples = 0; ///< Metered pairs compared.
        double candidateRmseW = 0.0;
        double incumbentRmseW = 0.0;
    };

    /**
     * Start shadow-evaluating @p candidate: every subsequent metered
     * sample scores candidate and incumbent against the same
     * reference. Replaces any previous shadow.
     */
    void beginShadow(MachinePowerModel candidate);

    /** Stop shadow evaluation and discard its state (idempotent). */
    void endShadow();

    /** Current shadow comparison (active=false when none). */
    ShadowReport shadowReport();

    /** Copy of the shadow candidate; raises if no shadow is active. */
    MachinePowerModel shadowModel();

    // ---- Reference window --------------------------------------------
    /** A retraining snapshot extracted from the reference window. */
    struct ReferenceData
    {
        FeatureSet features;   ///< Feature set rows are ordered by.
        Matrix x{0, 0};        ///< One row per sample, oldest first.
        std::vector<double> y; ///< Metered watts, aligned with x.
    };

    /**
     * Keep the last @p capacity metered samples as feature-ordered
     * rows (projected through the deployed model's catalog indices at
     * capture time) for background retraining. 0 disables and frees
     * the ring. The ring is cleared on model hot-swap because the
     * feature projection may change.
     */
    void enableReferenceWindow(std::size_t capacity);

    /** Samples currently held in the reference window. */
    std::size_t referenceFill();

    /** Snapshot the reference window (x may have zero rows). */
    ReferenceData referenceData();

    // ---- Drain-loop hooks (entry mutex already held) -----------------
    /** True when any per-sample aux work is enabled; one branch. */
    bool
    auxActiveLocked() const
    {
        return quarantined_ || shadow_ != nullptr || ref_.cap > 0;
    }

    /**
     * Record one evaluated sample into the active aux state:
     * substitute prediction, shadow scoring, reference capture.
     */
    void recordSampleLocked(const std::vector<double> &catalogRow,
                            double estimateW, double meteredW);

    /**
     * The watts this machine contributes to the cluster sum: the
     * substitute estimate while quarantined, the deployed model's
     * last estimate otherwise.
     */
    double servedWattsLocked() const;

    /** True while quarantined (mutex already held). */
    bool quarantinedLocked() const { return quarantined_; }

    /**
     * Drop model-specific aux state after a hot-swap: clears the
     * reference window (rows were projected for the old model) and
     * any shadow (it was competing against the old model). Quarantine
     * is left alone — the autopilot lifts it explicitly.
     */
    void onModelSwappedLocked();

  private:
    struct ShadowState
    {
        MachinePowerModel candidate;
        std::uint64_t refSamples = 0;
        double candidateSumSq = 0.0;
        double incumbentSumSq = 0.0;
        explicit ShadowState(MachinePowerModel model)
            : candidate(std::move(model))
        {}
    };

    /** Bounded ring of feature-ordered rows + aligned metered watts. */
    struct ReferenceRing
    {
        std::size_t cap = 0;
        std::size_t head = 0; ///< Next write position.
        std::size_t fill = 0;
        std::vector<std::vector<double>> rows;
        std::vector<double> watts;
    };

    std::string id_;
    std::size_t shard_;
    std::mutex mu_;
    OnlinePowerEstimator estimator_;
    void *observerState_ = nullptr;

    bool quarantined_ = false;
    /** Substitute's latest prediction; NaN until the next sample. */
    double substituteW_ = 0.0;
    std::shared_ptr<const MachinePowerModel> substituteModel_;
    std::unique_ptr<ShadowState> shadow_;
    ReferenceRing ref_;
    std::atomic<std::uint64_t> drops_{0};
};

/** Lock-striped map of machine id -> MachineEntry. */
class EstimatorRegistry
{
  public:
    /** @param numShards Stripe count; clamped to at least 1. */
    explicit EstimatorRegistry(std::size_t numShards = 8);

    /**
     * Register a machine. Raises RecoverableError if @p machineId is
     * already registered or empty. When the estimator config carries
     * no source label, the machine id is used (health events are then
     * attributable to the machine).
     *
     * @return The stable entry for the new machine.
     */
    MachineEntry &add(const std::string &machineId,
                      MachinePowerModel model,
                      OnlineEstimatorConfig config = {});

    /** @return The entry for @p machineId, or nullptr if unknown. */
    MachineEntry *find(const std::string &machineId);

    /**
     * Atomically replace the deployed model of one machine (see
     * OnlinePowerEstimator::swapModel for what state carries over).
     * Raises RecoverableError if the machine is unknown.
     */
    void swapModel(const std::string &machineId,
                   MachinePowerModel model);

    /** @return Number of registered machines. */
    std::size_t size() const;

    /** @return All machine ids, sorted. */
    std::vector<std::string> ids() const;

    /**
     * All entries, ordered by machine id (deterministic snapshot
     * order). Entry pointers stay valid for the registry's lifetime.
     */
    std::vector<MachineEntry *> entriesById();

    /** @return The stripe count. */
    std::size_t numShards() const { return shards.size(); }

    /** @return The shard index @p machineId hashes to. */
    std::size_t shardOf(const std::string &machineId) const;

  private:
    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, std::unique_ptr<MachineEntry>>
            entries;
    };

    std::vector<Shard> shards;
};

} // namespace chaos::serve

#endif // CHAOS_SERVE_REGISTRY_HPP
