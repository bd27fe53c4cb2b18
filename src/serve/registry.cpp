#include "serve/registry.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace chaos::serve {

void
MachineEntry::engageQuarantine(
    std::shared_ptr<const MachinePowerModel> substitute)
{
    std::lock_guard<std::mutex> lock(mu_);
    quarantined_ = true;
    substituteModel_ = std::move(substitute);
    // Until the next sample arrives, serve the last-known-good level:
    // the running mean estimate when the machine has history, else
    // NaN so servedWattsLocked falls back to the raw estimate.
    substituteW_ = estimator_.samples() > 0
                       ? estimator_.meanEstimateW()
                       : std::numeric_limits<double>::quiet_NaN();
    // Restart the reference window: a retrain must fit the drifted
    // regime, not the pre-drift samples that trained the incumbent.
    ref_.head = 0;
    ref_.fill = 0;
}

void
MachineEntry::liftQuarantine()
{
    std::lock_guard<std::mutex> lock(mu_);
    quarantined_ = false;
    substituteModel_.reset();
    substituteW_ = std::numeric_limits<double>::quiet_NaN();
}

bool
MachineEntry::quarantined()
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
}

void
MachineEntry::beginShadow(MachinePowerModel candidate)
{
    std::lock_guard<std::mutex> lock(mu_);
    shadow_ = std::make_unique<ShadowState>(std::move(candidate));
}

void
MachineEntry::endShadow()
{
    std::lock_guard<std::mutex> lock(mu_);
    shadow_.reset();
}

MachineEntry::ShadowReport
MachineEntry::shadowReport()
{
    std::lock_guard<std::mutex> lock(mu_);
    ShadowReport report;
    if (shadow_ == nullptr)
        return report;
    report.active = true;
    report.refSamples = shadow_->refSamples;
    if (shadow_->refSamples > 0) {
        const double n = static_cast<double>(shadow_->refSamples);
        report.candidateRmseW =
            std::sqrt(std::max(shadow_->candidateSumSq, 0.0) / n);
        report.incumbentRmseW =
            std::sqrt(std::max(shadow_->incumbentSumSq, 0.0) / n);
    }
    return report;
}

MachinePowerModel
MachineEntry::shadowModel()
{
    std::lock_guard<std::mutex> lock(mu_);
    raiseIf(shadow_ == nullptr,
            "registry: no shadow candidate on machine '" + id_ + "'");
    return shadow_->candidate;
}

void
MachineEntry::enableReferenceWindow(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    ref_ = ReferenceRing{};
    ref_.cap = capacity;
    if (capacity > 0) {
        ref_.rows.resize(capacity);
        ref_.watts.resize(capacity, 0.0);
    }
}

std::size_t
MachineEntry::referenceFill()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ref_.fill;
}

MachineEntry::ReferenceData
MachineEntry::referenceData()
{
    std::lock_guard<std::mutex> lock(mu_);
    ReferenceData out;
    out.features = estimator_.deployedModel().featureSet();
    const std::size_t n = ref_.fill;
    const std::size_t p = out.features.counters.size();
    out.x = Matrix(n, p);
    out.y.resize(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        // Oldest first: the ring's head points at the next write, so
        // with a full ring the oldest sample lives at head.
        const std::size_t src =
            (ref_.head + ref_.cap - n + i) % ref_.cap;
        const std::vector<double> &row = ref_.rows[src];
        for (std::size_t j = 0; j < p && j < row.size(); ++j)
            out.x(i, j) = row[j];
        out.y[i] = ref_.watts[src];
    }
    return out;
}

void
MachineEntry::recordSampleLocked(
    const std::vector<double> &catalogRow, double estimateW,
    double meteredW)
{
    if (quarantined_ && substituteModel_ != nullptr)
        substituteW_ = substituteModel_->predictFromCatalogRow(
            catalogRow);
    const bool metered = std::isfinite(meteredW);
    if (shadow_ != nullptr && metered) {
        const double candW =
            shadow_->candidate.predictFromCatalogRow(catalogRow);
        const double cd = meteredW - candW;
        const double id = meteredW - estimateW;
        shadow_->candidateSumSq += cd * cd;
        shadow_->incumbentSumSq += id * id;
        ++shadow_->refSamples;
    }
    if (ref_.cap > 0 && metered) {
        // Project the catalog row through the deployed model's
        // feature indices at capture time: reference rows stay tiny
        // and already feature-ordered for retraining.
        const std::vector<size_t> &idx =
            estimator_.deployedModel().catalogIndices();
        std::vector<double> &slot = ref_.rows[ref_.head];
        slot.resize(idx.size());
        for (std::size_t j = 0; j < idx.size(); ++j)
            slot[j] =
                idx[j] < catalogRow.size() ? catalogRow[idx[j]] : 0.0;
        ref_.watts[ref_.head] = meteredW;
        if (++ref_.head == ref_.cap)
            ref_.head = 0;
        if (ref_.fill < ref_.cap)
            ++ref_.fill;
    }
}

double
MachineEntry::servedWattsLocked() const
{
    if (quarantined_ && std::isfinite(substituteW_))
        return substituteW_;
    return estimator_.lastEstimateW();
}

void
MachineEntry::onModelSwappedLocked()
{
    shadow_.reset();
    ref_.head = 0;
    ref_.fill = 0;
}

EstimatorRegistry::EstimatorRegistry(std::size_t numShards)
    : shards(std::max<std::size_t>(numShards, 1))
{}

std::size_t
EstimatorRegistry::shardOf(const std::string &machineId) const
{
    return std::hash<std::string>{}(machineId) % shards.size();
}

MachineEntry &
EstimatorRegistry::add(const std::string &machineId,
                       MachinePowerModel model,
                       OnlineEstimatorConfig config)
{
    raiseIf(machineId.empty(), "registry: empty machine id");
    if (config.sourceLabel.empty())
        config.sourceLabel = machineId;

    const std::size_t shardIndex = shardOf(machineId);
    Shard &shard = shards[shardIndex];
    auto entry = std::make_unique<MachineEntry>(
        machineId, shardIndex, std::move(model), std::move(config));

    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] =
        shard.entries.try_emplace(machineId, std::move(entry));
    raiseIf(!inserted,
            "registry: duplicate machine id '" + machineId + "'");
    return *it->second;
}

MachineEntry *
EstimatorRegistry::find(const std::string &machineId)
{
    Shard &shard = shards[shardOf(machineId)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(machineId);
    return it == shard.entries.end() ? nullptr : it->second.get();
}

void
EstimatorRegistry::swapModel(const std::string &machineId,
                             MachinePowerModel model)
{
    MachineEntry *entry = find(machineId);
    raiseIf(entry == nullptr,
            "registry: cannot swap model of unknown machine '" +
                machineId + "'");
    entry->withEstimator([&](OnlinePowerEstimator &estimator) {
        estimator.swapModel(std::move(model));
        entry->onModelSwappedLocked();
    });
    static auto &swaps =
        obs::Registry::instance().counter("chaos.serve.model_swaps");
    swaps.add();
    obs::EventLog::instance().emit(obs::EventKind::HealthTransition,
                                   machineId, "model hot-swapped");
}

std::size_t
EstimatorRegistry::size() const
{
    std::size_t total = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.entries.size();
    }
    return total;
}

std::vector<std::string>
EstimatorRegistry::ids() const
{
    std::vector<std::string> out;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[id, entry] : shard.entries)
            out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<MachineEntry *>
EstimatorRegistry::entriesById()
{
    std::vector<MachineEntry *> out;
    for (Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (auto &[id, entry] : shard.entries)
            out.push_back(entry.get());
    }
    std::sort(out.begin(), out.end(),
              [](const MachineEntry *a, const MachineEntry *b) {
                  return a->id() < b->id();
              });
    return out;
}

} // namespace chaos::serve
