/**
 * @file
 * What one benchmark run reports: end-to-end metrics, per-layer
 * metrics (traced runs), ungated diagnostics, correctness gates,
 * operation accounting and the host record. Printed as a readable
 * report followed by one JSON line that run.py turns into the
 * benchmark result.
 */
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "timing.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Process-level resource readings. */
struct ProcessTimes
{
    double cpuSeconds = 0.0;  ///< User + system CPU of the process.
    double wallSeconds = 0.0; ///< Steady-clock seconds.
};

ProcessTimes processTimes();

/** Peak resident set size of the process, MiB. */
double peakRssMb();

/** Cumulative host CPU time, all CPUs, in clock ticks (/proc/stat). */
struct HostCpu
{
    double steal = 0.0; ///< Time the hypervisor ran something else.
    double total = 0.0;
};
HostCpu hostCpu();

/** Share of host CPU time stolen between two readings, percent. */
double stealPct(const HostCpu &from, const HostCpu &to);

/**
 * Host steal per consecutive window of a measured phase. The measuring
 * thread calls poll() as it goes; each window boundary it passes takes
 * one /proc/stat reading.
 */
class StealWindows
{
  public:
    StealWindows(std::uint64_t startNs, std::uint64_t windowNs);

    void poll(std::uint64_t nowNs);

    /** Steal percent of each window whose both ends were read. */
    std::vector<double> stealPct() const;

    /** Windows read so far with steal at most @p threshold percent. */
    std::size_t quietCount(double threshold) const;

  private:
    std::uint64_t startNs_;
    std::uint64_t windowNs_;
    std::vector<HostCpu> readings_; ///< At startNs + i * windowNs.
};

/** 1-minute load average (NaN when unavailable). */
double loadAverage1();

class Report
{
  public:
    Report(std::string workload, std::uint64_t seed, bool traced);

    void endToEnd(const std::string &name, double value,
                  const std::string &unit);
    void perLayer(const std::string &name, double value,
                  const std::string &unit);
    void diagnostic(const std::string &name, double value,
                    const std::string &unit);
    void host(const std::string &key, const std::string &value);
    void host(const std::string &key, double value);

    void gate(Gate g);
    void gates(const std::vector<Gate> &gs);

    /** Operations attempted and failed (samples, ticks, iterations). */
    void operations(std::uint64_t attempted, std::uint64_t failed);

    /** Per-module self-time table of the traced run. */
    void selfTimes(std::vector<ModuleTime> table);

    bool correct() const;

    void printText(std::ostream &out) const;
    /** One single-line JSON object with everything above. */
    std::string toJson() const;

  private:
    std::string workload_;
    std::uint64_t seed_;
    bool traced_;
    std::vector<Metric> endToEnd_, perLayer_, diagnostics_;
    std::vector<std::pair<std::string, std::string>> host_;
    std::vector<Gate> gates_;
    std::vector<ModuleTime> selfTimes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
