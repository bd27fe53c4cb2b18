#include "timing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

double
percentile(std::vector<double> values, double q)
{
    values.erase(std::remove_if(values.begin(), values.end(),
                                [](double v) { return std::isnan(v); }),
                 values.end());
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    // Exact ranks stay exact, also next to an infinite value.
    return frac == 0.0 ? values[lo]
                       : values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
bucketPercentile(const std::vector<double> &bounds,
                 const std::vector<std::uint64_t> &counts, double q)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double lower = i == 0 ? 0.0 : bounds[i - 1];
        if (i >= bounds.size())
            return lower; // Overflow bucket: no upper edge to use.
        if (static_cast<double>(before + counts[i]) >= rank) {
            const double within = (rank - static_cast<double>(before)) /
                                  static_cast<double>(counts[i]);
            return lower + within * (bounds[i] - lower);
        }
        before += counts[i];
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

namespace {

/** The values in each consecutive window of @p windowNs from @p startNs,
 *  by their time stamps (values before startNs are dropped). */
std::vector<std::vector<double>>
groupByWindow(const std::vector<std::uint64_t> &timeNs,
              const std::vector<double> &values, std::uint64_t startNs,
              std::uint64_t windowNs)
{
    std::vector<std::vector<double>> byWindow;
    for (std::size_t i = 0; i < timeNs.size() && i < values.size(); ++i) {
        if (timeNs[i] < startNs)
            continue;
        const std::size_t w = (timeNs[i] - startNs) / windowNs;
        if (w >= byWindow.size())
            byWindow.resize(w + 1);
        byWindow[w].push_back(values[i]);
    }
    return byWindow;
}

} // namespace

std::vector<double>
windowPercentiles(const std::vector<std::uint64_t> &timeNs,
                  const std::vector<double> &values, std::uint64_t startNs,
                  std::uint64_t windowNs, double q, std::size_t minCount)
{
    std::vector<double> out;
    for (std::vector<double> &w :
         groupByWindow(timeNs, values, startNs, windowNs)) {
        out.push_back(w.size() >= minCount && !w.empty()
                          ? percentile(std::move(w), q)
                          : std::numeric_limits<double>::quiet_NaN());
    }
    return out;
}

std::vector<double>
windowRates(const std::vector<std::uint64_t> &eventNs, std::uint64_t startNs,
            std::uint64_t endNs, std::uint64_t windowNs, double weight)
{
    const std::size_t whole =
        endNs > startNs && windowNs > 0 ? (endNs - startNs) / windowNs : 0;
    std::vector<std::uint64_t> first(whole, 0), last(whole, 0);
    std::vector<std::size_t> count(whole, 0);
    for (std::uint64_t t : eventNs) {
        if (t < startNs)
            continue;
        const std::size_t w = (t - startNs) / windowNs;
        if (w >= whole)
            continue;
        if (count[w]++ == 0)
            first[w] = t;
        last[w] = t;
    }
    std::vector<double> rates(whole, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t w = 0; w < whole; ++w) {
        if (count[w] >= 2 && last[w] > first[w]) {
            rates[w] = weight * static_cast<double>(count[w] - 1) /
                       (static_cast<double>(last[w] - first[w]) / 1e9);
        }
    }
    return rates;
}

std::vector<std::size_t>
quietWindows(const std::vector<double> &disturbance, double threshold,
             std::size_t minCount)
{
    auto worse = [](double d) {
        return std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
    };
    std::vector<std::size_t> quiet;
    for (std::size_t w = 0; w < disturbance.size(); ++w) {
        if (worse(disturbance[w]) <= threshold)
            quiet.push_back(w);
    }
    if (quiet.size() >= minCount)
        return quiet;
    std::vector<std::size_t> order(disturbance.size());
    for (std::size_t w = 0; w < order.size(); ++w)
        order[w] = w;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return worse(disturbance[a]) < worse(disturbance[b]);
                     });
    order.resize(std::min(minCount, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

double
medianAt(const std::vector<double> &values,
         const std::vector<std::size_t> &indices)
{
    std::vector<double> picked;
    for (std::size_t i : indices) {
        if (i < values.size() && !std::isnan(values[i]))
            picked.push_back(values[i]);
    }
    return median(std::move(picked));
}

std::uint64_t
PacedSchedule::dueNs(std::uint64_t i) const
{
    return startNs + static_cast<std::uint64_t>(
                         std::llround(static_cast<double>(i) * 1e9 /
                                      ratePerSec));
}

ArrivalLog::ArrivalLog(std::size_t machines)
    : due_(machines), eval_(machines), watts_(machines)
{}

void
ArrivalLog::reserve(std::size_t perMachine)
{
    // resize() writes every element; clear() keeps the capacity.
    for (std::size_t m = 0; m < due_.size(); ++m) {
        due_[m].resize(perMachine);
        due_[m].clear();
        eval_[m].resize(perMachine);
        eval_[m].clear();
        watts_[m].resize(perMachine);
        watts_[m].clear();
    }
}

void
ArrivalLog::noteSent(std::size_t machine, std::uint64_t dueNs)
{
    due_[machine].push_back(dueNs);
}

void
ArrivalLog::noteEvaluated(std::size_t machine, std::uint64_t evalNs,
                          double watts)
{
    eval_[machine].push_back(evalNs);
    watts_[machine].push_back(watts);
}

std::size_t
ArrivalLog::sentCount(std::size_t machine) const
{
    return due_[machine].size();
}

std::size_t
ArrivalLog::evaluatedCount(std::size_t machine) const
{
    return eval_[machine].size();
}

bool
ArrivalLog::complete() const
{
    for (std::size_t m = 0; m < due_.size(); ++m) {
        if (due_[m].size() != eval_[m].size())
            return false;
    }
    return true;
}

std::vector<double>
ArrivalLog::latenciesMs(std::vector<std::uint64_t> *dueOut) const
{
    std::vector<double> out;
    if (dueOut != nullptr)
        dueOut->clear();
    for (std::size_t m = 0; m < due_.size(); ++m) {
        const std::size_t n = std::min(due_[m].size(), eval_[m].size());
        for (std::size_t k = 0; k < n; ++k) {
            // A sample evaluated before it was due cannot happen on a
            // monotonic clock; clamp rather than wrap if it ever did.
            const std::uint64_t d = due_[m][k];
            const std::uint64_t e = eval_[m][k];
            out.push_back(e > d ? static_cast<double>(e - d) / 1e6 : 0.0);
            if (dueOut != nullptr)
                dueOut->push_back(d);
        }
    }
    return out;
}

std::vector<double>
latenessMs(const std::vector<std::uint64_t> &dueNs,
           const std::vector<std::uint64_t> &sentNs)
{
    std::vector<double> out;
    const std::size_t n = std::min(dueNs.size(), sentNs.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(sentNs[i] > dueNs[i]
                          ? static_cast<double>(sentNs[i] - dueNs[i]) / 1e6
                          : 0.0);
    }
    return out;
}

namespace {

std::string
counts(std::initializer_list<std::pair<const char *, std::uint64_t>> kv)
{
    std::ostringstream out;
    bool first = true;
    for (const auto &[k, v] : kv) {
        out << (first ? "" : " ") << k << "=" << v;
        first = false;
    }
    return out.str();
}

} // namespace

std::vector<Gate>
wireAccountingGates(const WireAccounting &a)
{
    return {
        {"wire.sent_eq_accepted_plus_rejected",
         a.sent == a.accepted + a.rejected,
         counts({{"sent", a.sent},
                 {"accepted", a.accepted},
                 {"rejected", a.rejected}})},
        {"wire.zero_rejected", a.rejected == 0,
         counts({{"rejected", a.rejected}})},
        {"wire.zero_bad_frames", a.badFrames == 0,
         counts({{"bad_frames", a.badFrames}})},
        {"wire.server_agrees_on_accepted", a.serverAccepted == a.accepted,
         counts({{"server_accepted", a.serverAccepted},
                 {"client_accepted", a.accepted}})},
        {"wire.processed_eq_accepted",
         a.processed == a.accepted && a.dropped == 0,
         counts({{"processed", a.processed},
                 {"accepted", a.accepted},
                 {"dropped", a.dropped}})},
    };
}

std::vector<Gate>
replayAccountingGates(const ReplayAccounting &a)
{
    return {
        {"replay.zero_dropped", a.dropped == 0,
         counts({{"dropped", a.dropped}})},
        {"replay.processed_eq_submitted", a.processed == a.submitted,
         counts({{"processed", a.processed},
                 {"submitted", a.submitted}})},
        {"replay.cluster_sum_is_eq5", a.clusterSumMismatches == 0,
         counts({{"ticks_mismatched", a.clusterSumMismatches},
                 {"ticks", a.ticks}})},
    };
}

std::vector<Gate>
remediationGates(const std::vector<Remediation> &r)
{
    std::size_t stormed = 0, healed = 0, falseAlarms = 0;
    std::string firstBad;
    for (const Remediation &m : r) {
        if (m.stormed) {
            ++stormed;
            if (m.quarantines > 0 && m.promotions > 0)
                ++healed;
            else if (firstBad.empty())
                firstBad = m.id;
        } else if (m.quarantines > 0) {
            ++falseAlarms;
            if (firstBad.empty())
                firstBad = m.id;
        }
    }
    const std::string where =
        firstBad.empty() ? "" : " first_bad=" + firstBad;
    return {
        {"autopilot.stormed_quarantined_and_promoted",
         stormed > 0 && healed == stormed,
         counts({{"stormed", stormed}, {"healed", healed}}) + where},
        {"autopilot.clean_never_quarantined", falseAlarms == 0,
         counts({{"quarantined_clean", falseAlarms}}) + where},
    };
}

Gate
pacingGate(double lateP90Ms, double latencyP90Ms, double maxShare)
{
    std::ostringstream detail;
    detail << "late_p90_ms=" << lateP90Ms << " latency_p90_ms=" << latencyP90Ms
           << " max_share=" << maxShare;
    return {"wire.generator_kept_schedule",
            lateP90Ms <= maxShare * latencyP90Ms, detail.str()};
}

std::size_t
failedGates(const std::vector<Gate> &gates)
{
    return static_cast<std::size_t>(
        std::count_if(gates.begin(), gates.end(),
                      [](const Gate &g) { return !g.ok; }));
}

} // namespace perfbench
