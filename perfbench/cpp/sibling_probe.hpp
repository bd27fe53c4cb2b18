/**
 * @file
 * Timing code as it runs on an undisturbed core.
 *
 * On a shared host, another guest can run on the sibling hyperthread
 * of the physical core behind one of this guest's vCPUs. While it
 * does, throughput-bound code on that vCPU runs up to twice as slow,
 * with no steal to show it, and each vCPU has its own sibling, busy or
 * idle from one moment to the next. A short cache-resident multiply-add
 * kernel (the probe) reads that state: its time is bimodal, near its
 * floor while the sibling is idle and about twice the floor while it
 * is busy. Both levels move with the host's load, so the split between
 * them is found in each run's readings (busyThresholdMs).
 *
 * SiblingProbe runs the probe every couple of milliseconds on a thread
 * pinned to the measuring thread's vCPU, so each unit of work can be
 * given the share of its time the sibling was busy. A unit of W ms of
 * undisturbed work that spends a share b of its time at busy speed s
 * takes t = W / (1 - b (1 - s)), where t is the measuring thread's CPU
 * time (threadCpuNs), which leaves out time stolen by the hypervisor
 * and time the probe thread held the vCPU. undisturbedTimes() fits
 * 1/t against b over the run's units and reports each unit as
 * t (1 - b (1 - s)): the time it would have taken with the sibling idle.
 *
 * The idle level itself moves with the host's load (the probe's fastest
 * reading was 0.114 ms on a quiet host and 0.151 ms on a loaded one,
 * and the corrected times followed). referenceScale() rescales each
 * run to a host whose idle probe reads kReferenceProbeMs. The
 * correction and the scale use the probe's readings only, never the
 * unit's own time, so a change to the program moves the reported times
 * as it moves the raw ones.
 */
#ifndef PERFBENCH_SIBLING_PROBE_HPP
#define PERFBENCH_SIBLING_PROBE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/**
 * Idle probe time the reported times are scaled to: the idle level of
 * the 4-vCPU guest the benchmark was built on, on a quiet host.
 */
inline constexpr double kReferenceProbeMs = 0.135;

/** CPU time of the calling thread, nanoseconds. */
std::uint64_t threadCpuNs();

/**
 * The time that best splits @p ms into a fast and a slow group: Otsu's
 * threshold on the logarithms (the split that maximises the variance
 * between the two groups). NaN when there are fewer than two values.
 */
double busyThresholdMs(std::vector<double> ms);

/** Probe readings: when each was taken and how long it took. */
struct ProbeReadings
{
    std::vector<std::uint64_t> atNs;
    std::vector<double> ms;
    double floorMs = 0.0;     ///< Fastest reading.
    double thresholdMs = 0.0; ///< busyThresholdMs of the readings.
    double idleMs = 0.0;      ///< Median reading at or below it.
};

class SiblingProbe
{
  public:
    /**
     * Reads the vCPUs the process may run on, moves the calling thread
     * to the one whose probe reads fastest, and starts probing there.
     */
    SiblingProbe();
    ~SiblingProbe();
    SiblingProbe(const SiblingProbe &) = delete;
    SiblingProbe &operator=(const SiblingProbe &) = delete;

    /**
     * Call between units of work on the measuring thread. When the
     * latest reading was busy, and the thread has stayed on its vCPU
     * for a while, moves it and the probe to the vCPU that reads
     * fastest now (less of the next units then needs correcting).
     */
    void settle();

    /** Every reading so far. */
    ProbeReadings readings() const;

    /** Times the measuring thread was moved. */
    std::size_t moves() const { return moves_; }

  private:
    double runKernel(std::vector<double> &c) const;
    void probeLoop();

    std::vector<int> cpus_;
    std::vector<double> a_, b_, mainC_;
    std::atomic<int> cpu_{-1};
    std::atomic<bool> stop_{false};
    std::atomic<double> lastMs_{0.0};
    double floorMs_;
    std::uint64_t stayedSinceNs_ = 0;
    std::size_t moves_ = 0;
    mutable std::mutex mutex_;
    ProbeReadings readings_;
    std::thread thread_;
};

/**
 * Share of the readings in [startNs, endNs] above the threshold. When
 * no reading falls inside, the nearest reading on either side decides.
 * NaN when there is no reading at all.
 */
double busyShare(const ProbeReadings &r, std::uint64_t startNs,
                 std::uint64_t endNs);

/** kReferenceProbeMs over the run's idle probe level (1 without one). */
double referenceScale(const ProbeReadings &r);

/** Per-unit times corrected to an idle sibling, and the fitted speed. */
struct Undisturbed
{
    std::vector<double> ms;
    /** Busy speed over idle speed, s in t = W / (1 - b (1 - s)); 1
     *  when the units' busy shares do not vary enough to fit it. */
    double busySpeed = 1.0;
};

/**
 * Fit 1/t = a + c b by least squares over the units (times @p ms, busy
 * shares @p busy; NaN shares are left out of the fit and uncorrected),
 * take s = (a + c) / a, clamped to [0.4, 1], and correct each unit to
 * t (1 - b (1 - s)). Busy shares with a standard deviation under 0.05
 * cannot separate the two speeds; the times then stay as measured.
 */
Undisturbed undisturbedTimes(const std::vector<double> &ms,
                             const std::vector<double> &busy);

/**
 * The set-up repeats of a run. Too few to fit a busy speed of their
 * own, they are corrected with the one fitted over the run's units.
 */
struct SetupTimes
{
    std::vector<std::uint64_t> startNs, endNs; ///< Wall clock (nowNs).
    std::vector<std::uint64_t> cpuNs;          ///< threadCpuNs spent.

    void add(std::uint64_t start, std::uint64_t end, std::uint64_t cpu)
    {
        startNs.push_back(start);
        endNs.push_back(end);
        cpuNs.push_back(cpu);
    }
    /** CPU seconds of each repeat. */
    std::vector<double> seconds() const;
    /** Median over the repeats of t (1 - b (1 - @p busySpeed)), s. */
    double undisturbedMedianS(const ProbeReadings &r, double busySpeed) const;
};

} // namespace perfbench

#endif // PERFBENCH_SIBLING_PROBE_HPP
