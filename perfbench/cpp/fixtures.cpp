#include "fixtures.hpp"

#include <thread>

#include "stats/metrics.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace chaos;

CampaignConfig
traceCampaignConfig(std::uint64_t seed)
{
    CampaignConfig config;
    config.numMachines = 5;
    config.runsPerWorkload = 2;
    config.run.durationScale = 0.25;
    config.seed = seed;
    return config;
}

Trace
collectTrace(const CampaignConfig &config)
{
    ClusterCampaign campaign = collectClusterData(MachineClass::Core2, config);
    Trace trace;
    trace.data = std::move(campaign.data);
    const Dataset &data = trace.data;
    trace.rowSize = data.numFeatures();
    int maxMachine = 0;
    for (int m : data.machineIds())
        maxMachine = std::max(maxMachine, m);
    trace.rows.resize(static_cast<std::size_t>(maxMachine) + 1);
    trace.meteredW.resize(trace.rows.size());
    for (std::size_t r = 0; r < data.numRows(); ++r) {
        const auto m = static_cast<std::size_t>(data.machineIds()[r]);
        const std::vector<double> row = data.features().row(r);
        trace.rows[m].insert(trace.rows[m].end(), row.begin(), row.end());
        trace.meteredW[m].push_back(data.powerW()[r]);
    }
    return trace;
}

MachinePowerModel
fitServingModel(const Dataset &data)
{
    return MachinePowerModel::fit(data, paperGeneralFeatureSet(),
                                  ModelType::Quadratic, MarsConfig{});
}

OnlineEstimatorConfig
servingEstimatorConfig()
{
    return OnlineEstimatorConfig::forSpec(machineSpecFor(MachineClass::Core2));
}

MonitorTap::MonitorTap(monitor::FleetMonitor &monitor,
                       serve::FleetServer &server,
                       const std::vector<std::string> &ids)
    : monitor_(monitor)
{
    for (std::size_t i = 0; i < ids.size(); ++i)
        index_[server.machine(ids[i])] = i;
}

void
MonitorTap::onSample(serve::MachineEntry &entry,
                     OnlinePowerEstimator &estimator, double estimateW,
                     double meteredW)
{
    if (timed_.load(std::memory_order_relaxed)) {
        const std::uint64_t start = nowNs();
        monitor_.onSample(entry, estimator, estimateW, meteredW);
        monitorNs_.fetch_add(nowNs() - start, std::memory_order_relaxed);
        monitorCalls_.fetch_add(1, std::memory_order_relaxed);
    } else {
        monitor_.onSample(entry, estimator, estimateW, meteredW);
    }
    if (ArrivalLog *log = log_.load(std::memory_order_acquire))
        log->noteEvaluated(index_.at(&entry), nowNs(), estimateW);
}

void
MonitorTap::onModelSwap(const std::string &machineId)
{
    monitor_.onModelSwap(machineId);
}

void
recordHost(Report &report, const Options &opts, std::size_t poolThreads,
           std::size_t busyThreads)
{
    report.host("hardware_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
    report.host("build_type", PERFBENCH_BUILD_TYPE);
    report.host("compiler", PERFBENCH_COMPILER);
    report.host("pool_threads", static_cast<double>(poolThreads));
    report.host("busy_threads", static_cast<double>(busyThreads));
    report.host("seed", static_cast<double>(opts.seed));
    report.host("run_seconds", opts.seconds);
}

double
predictNsPerSample(const MachinePowerModel &model, const Trace &trace,
                   std::size_t n)
{
    const std::vector<std::size_t> &idx = model.catalogIndices();
    const std::size_t k = idx.size();
    std::vector<double> features(n * k);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t m = i % trace.machines();
        const double *row = trace.row(m, (i / trace.machines()) %
                                             trace.length(m));
        for (std::size_t j = 0; j < k; ++j)
            features[i * k + j] = row[idx[j]];
    }
    std::vector<double> out(n);
    // Repeat until at least 20 ms have been timed.
    std::uint64_t elapsed = 0, samples = 0;
    while (elapsed < 20'000'000) {
        Span span("models.predict_batch");
        const std::uint64_t start = nowNs();
        model.predictBatchFromFeatureRows(features.data(), n, k, out.data());
        elapsed += nowNs() - start;
        samples += n;
    }
    return static_cast<double>(elapsed) / static_cast<double>(samples);
}

double
clusterDrePct(const std::vector<double> &predicted,
              const std::vector<double> &actual, std::size_t machines)
{
    const MachineSpec spec = machineSpecFor(MachineClass::Core2);
    const double n = static_cast<double>(machines);
    return 100.0 * dynamicRangeError(predicted, actual, n * spec.idlePowerW,
                                     n * spec.maxPowerW);
}

double
cpuPerWall(const ProcessTimes &from, const ProcessTimes &to)
{
    const double wall = to.wallSeconds - from.wallSeconds;
    return wall > 0.0 ? (to.cpuSeconds - from.cpuSeconds) / wall : 0.0;
}

} // namespace perfbench
