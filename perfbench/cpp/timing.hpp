/**
 * @file
 * Pure measurement logic of the benchmark, kept free of sockets and
 * threads so the self-tests can drive it directly: percentiles, the
 * open-loop latency-from-due calculation, matching observed samples
 * back to the samples that were sent, and the correctness gates.
 */
#ifndef PERFBENCH_TIMING_HPP
#define PERFBENCH_TIMING_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Percentile @p q in [0, 1] of @p values, interpolating linearly
 * between order statistics (the "inclusive" rule). NaN values are
 * ignored; NaN when none is left.
 */
double percentile(std::vector<double> values, double q);

/** percentile(values, 0.5). */
double median(std::vector<double> values);

/**
 * Percentile @p q of a fixed-bucket histogram given its upper bounds
 * and per-bucket counts (counts.size() == bounds.size() + 1, the last
 * bucket unbounded). Interpolates inside the bucket; the first bucket
 * starts at 0 and the overflow bucket is reported at its lower edge.
 * NaN when every count is 0.
 */
double bucketPercentile(const std::vector<double> &bounds,
                        const std::vector<std::uint64_t> &counts,
                        double q);

/**
 * Percentile @p q of the values falling in each consecutive window of
 * @p windowNs from @p startNs, by their time stamps; windows with fewer
 * than @p minCount values are NaN.
 */
std::vector<double> windowPercentiles(const std::vector<std::uint64_t> &timeNs,
                                      const std::vector<double> &values,
                                      std::uint64_t startNs,
                                      std::uint64_t windowNs, double q,
                                      std::size_t minCount);

/**
 * Event rate per second in each whole window of @p windowNs within
 * [startNs, endNs), counting @p weight per stamp: the events after a
 * window's first over the time they took, so the rate keeps every
 * digit of the clock. NaN for windows with fewer than two events.
 */
std::vector<double> windowRates(const std::vector<std::uint64_t> &eventNs,
                                std::uint64_t startNs, std::uint64_t endNs,
                                std::uint64_t windowNs, double weight);

/**
 * Indices of the windows the host disturbed least: every window whose
 * @p disturbance is at most @p threshold when there are at least
 * @p minCount of them, otherwise the @p minCount least disturbed.
 * NaN disturbance counts as the worst. Other tenants of the host only
 * ever slow a window down, in bursts and plateaus of seconds; figures
 * taken over these windows measure the program, not the neighbours.
 */
std::vector<std::size_t> quietWindows(const std::vector<double> &disturbance,
                                      double threshold, std::size_t minCount);

/** Median of @p values at @p indices, skipping NaN. NaN when none. */
double medianAt(const std::vector<double> &values,
                const std::vector<std::size_t> &indices);

/**
 * Open-loop schedule: sample i of a paced phase is due at
 * startNs + i * 1e9 / ratePerSec, independent of when earlier samples
 * actually went out.
 */
struct PacedSchedule
{
    std::uint64_t startNs = 0;
    double ratePerSec = 1.0;

    std::uint64_t dueNs(std::uint64_t i) const;
};

/**
 * Per-machine pairing of what was sent with what was evaluated. The
 * sender logs each sample's due time in its machine's send order; the
 * observer logs each evaluation (time and estimate) in the order the
 * server evaluated that machine's samples. Because every machine's
 * samples are evaluated in arrival order, the k-th evaluation of a
 * machine belongs to its k-th sent sample.
 *
 * Each machine's logs are written by one thread at a time (the sender
 * for sends, the drain thread for evaluations); pairing happens only
 * after both have quiesced.
 */
class ArrivalLog
{
  public:
    explicit ArrivalLog(std::size_t machines);

    /**
     * Allocate and touch room for @p perMachine samples per machine up
     * front, so the process's memory does not depend on how many
     * samples a run ends up sending.
     */
    void reserve(std::size_t perMachine);

    void noteSent(std::size_t machine, std::uint64_t dueNs);
    void noteEvaluated(std::size_t machine, std::uint64_t evalNs,
                       double watts);

    std::size_t sentCount(std::size_t machine) const;
    std::size_t evaluatedCount(std::size_t machine) const;

    /** Every machine evaluated exactly what was sent to it. */
    bool complete() const;

    /**
     * Due-to-evaluated latency of every paired sample, milliseconds,
     * in machine-major order. A sample the generator sent late is
     * charged from its due time, so a generator stall is paid by the
     * samples queued behind it. @p dueOut, when given, receives each
     * sample's due time in the same order.
     */
    std::vector<double> latenciesMs(
        std::vector<std::uint64_t> *dueOut = nullptr) const;

    /** Estimate of machine @p machine's k-th evaluated sample. */
    double watts(std::size_t machine, std::size_t k) const
    {
        return watts_[machine][k];
    }

  private:
    std::vector<std::vector<std::uint64_t>> due_;
    std::vector<std::vector<std::uint64_t>> eval_;
    std::vector<std::vector<double>> watts_;
};

/** Sender lateness (sent minus due) of each sample, milliseconds. */
std::vector<double> latenessMs(const std::vector<std::uint64_t> &dueNs,
                               const std::vector<std::uint64_t> &sentNs);

/** One correctness check's outcome. */
struct Gate
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Wire-path accounting as reported by the client and the server. */
struct WireAccounting
{
    std::uint64_t sent = 0;      ///< Client: samples sent.
    std::uint64_t accepted = 0;  ///< Client: acked as accepted.
    std::uint64_t rejected = 0;  ///< Client: acked as rejected.
    std::uint64_t badFrames = 0; ///< Server: corrupt frames seen.
    std::uint64_t serverAccepted = 0; ///< Server: samples accepted.
    std::uint64_t processed = 0; ///< Fleet: samples evaluated.
    std::uint64_t dropped = 0;   ///< Fleet: samples dropped.
};

/**
 * sent == accepted + rejected, 0 rejected, 0 bad frames, the server
 * and the client agree on accepted, and processed == accepted with
 * nothing dropped.
 */
std::vector<Gate> wireAccountingGates(const WireAccounting &a);

/** Lockstep-replay accounting. */
struct ReplayAccounting
{
    std::uint64_t submitted = 0;
    std::uint64_t processed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t ticks = 0;
    /** Ticks whose snapshot clusterW was not bitwise the sum of its
     *  machines' watts (the snapshot adds them in the same order). */
    std::uint64_t clusterSumMismatches = 0;
};

/** 0 dropped, processed == submitted, every clusterW the Eq. 5 sum. */
std::vector<Gate> replayAccountingGates(const ReplayAccounting &a);

/**
 * Remediation outcome per machine: every stormed machine was
 * quarantined and promoted at least once, and no other machine was
 * ever quarantined.
 */
struct Remediation
{
    std::string id;
    bool stormed = false;
    std::uint64_t quarantines = 0;
    std::uint64_t promotions = 0;
    std::uint64_t rollbacks = 0;
};
std::vector<Gate> remediationGates(const std::vector<Remediation> &r);

/**
 * The open-loop generator kept its schedule: the median over the quiet
 * windows of its per-window lateness p90 is at most @p maxShare of the
 * latency p90 reported over those windows. Past that, the latency
 * figures time the generator, not the server.
 */
Gate pacingGate(double lateP90Ms, double latencyP90Ms, double maxShare);

/** Number of gates that failed. */
std::size_t failedGates(const std::vector<Gate> &gates);

} // namespace perfbench

#endif // PERFBENCH_TIMING_HPP
