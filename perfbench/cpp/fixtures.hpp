/**
 * @file
 * Set-up pieces the three workloads share: the command-line options,
 * the seeded Core2 trace every workload starts from, the serving
 * model fitted on it, the delegating sample observer that stands
 * between the fleet server and the quality monitor, and the host
 * record.
 */
#ifndef PERFBENCH_FIXTURES_HPP
#define PERFBENCH_FIXTURES_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chaos.hpp"
#include "monitor/fleet_monitor.hpp"
#include "sibling_probe.hpp"
#include "report.hpp"
#include "serve/server.hpp"
#include "timing.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string outDir; ///< Where the traced run writes its spans.
};

/** How many times each workload repeats its set-up (median reported). */
inline constexpr int kSetupRepeats = 5;

/**
 * Campaign seed of the fixed traces replay_fleet and train_cluster
 * work on. On per-seed traces the work itself changes from seed to
 * seed (Algorithm 1 selected 2 to 7 features; replay episodes ran
 * 2,071 to 2,097 ticks over different workload phases), and the
 * run-to-run spread would measure the data instead of the code.
 */
inline constexpr std::uint64_t kCorpusSeed = 2012;

/**
 * The seeded trace: a simulated 5-machine Core2 cluster running the
 * four standard workloads twice each at duration scale 0.25.
 */
struct Trace
{
    chaos::Dataset data;
    std::size_t rowSize = 0; ///< Catalog counters per row.
    /** Row-major catalog rows and meter readings per traced machine. */
    std::vector<std::vector<double>> rows;
    std::vector<std::vector<double>> meteredW;

    std::size_t machines() const { return rows.size(); }
    std::size_t length(std::size_t m) const { return meteredW[m].size(); }
    const double *row(std::size_t m, std::size_t t) const
    {
        return rows[m].data() + t * rowSize;
    }
};

chaos::CampaignConfig traceCampaignConfig(std::uint64_t seed);
/** Collect the trace of @p config (traceCampaignConfig by default). */
Trace collectTrace(const chaos::CampaignConfig &config);
inline Trace collectTrace(std::uint64_t seed)
{
    return collectTrace(traceCampaignConfig(seed));
}

/** Quadratic model on the paper's general feature set (no Alg. 1). */
chaos::MachinePowerModel fitServingModel(const chaos::Dataset &data);

/** Core2 envelope for the online estimators. */
chaos::OnlineEstimatorConfig servingEstimatorConfig();

/**
 * The fleet's sample observer: forwards every call to the quality
 * monitor and, when asked, logs each evaluation into an ArrivalLog
 * (time and estimate, per machine) and times the monitor's onSample.
 * Install after FleetMonitor::attach; remove before detaching.
 */
class MonitorTap : public chaos::serve::SampleObserver
{
  public:
    MonitorTap(chaos::monitor::FleetMonitor &monitor,
               chaos::serve::FleetServer &server,
               const std::vector<std::string> &ids);

    /** Log evaluations into @p log (nullptr stops logging). */
    void setLog(ArrivalLog *log) { log_.store(log); }
    /** Time every monitor call (traced runs). */
    void setTimed(bool timed) { timed_.store(timed); }

    void onSample(chaos::serve::MachineEntry &entry,
                  chaos::OnlinePowerEstimator &estimator,
                  double estimateW, double meteredW) override;
    void onModelSwap(const std::string &machineId) override;

    std::uint64_t monitorNs() const { return monitorNs_.load(); }
    std::uint64_t monitorCalls() const { return monitorCalls_.load(); }

  private:
    chaos::monitor::FleetMonitor &monitor_;
    std::unordered_map<const chaos::serve::MachineEntry *, std::size_t>
        index_;
    std::atomic<ArrivalLog *> log_{nullptr};
    std::atomic<bool> timed_{false};
    std::atomic<std::uint64_t> monitorNs_{0};
    std::atomic<std::uint64_t> monitorCalls_{0};
};

/** Hardware, build and pool facts every report carries. */
void recordHost(Report &report, const Options &opts,
                std::size_t poolThreads, std::size_t busyThreads);

/**
 * Time the deployed model's batched predict over @p n rows of @p trace
 * (projected onto its features), ns per sample.
 */
double predictNsPerSample(const chaos::MachinePowerModel &model,
                          const Trace &trace, std::size_t n);

/** Eq. 6 DRE of @p predicted vs @p actual over a summed envelope, %. */
double clusterDrePct(const std::vector<double> &predicted,
                     const std::vector<double> &actual,
                     std::size_t machines);

/** CPU seconds per wall second between two readings. */
double cpuPerWall(const ProcessTimes &from, const ProcessTimes &to);

} // namespace perfbench

#endif // PERFBENCH_FIXTURES_HPP
