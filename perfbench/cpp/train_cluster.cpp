/**
 * @file
 * train_cluster: a collected trace in, a cross-validated model out.
 *
 * Set-up collects a small fixed Core2 corpus (corpusConfig, campaign
 * seed kCorpusSeed). Each iteration runs Algorithm 1
 * (selectClusterFeatures), a 5-fold cross-validated evaluation of the
 * quadratic technique on the selected set, and the final
 * MachinePowerModel::fit, with the pool at 2 threads. Every iteration
 * must run all 5 folds and select the same feature set. The workload
 * seed drives the grouped k-fold assignment of the evaluation.
 *
 * The corpus is small so that an iteration takes about a quarter of a
 * second and a run holds over a hundred of them. Each iteration's time
 * is corrected to an idle sibling hyperthread (SiblingProbe), and the
 * timings are taken over the corrected iterations.
 *
 * One 5-fold assignment of 10 runs swings the CV DRE by about 15%
 * between seeds, so the reported DRE is repeated cross-validation:
 * the mean over kDreRepeats seeded fold assignments, computed after
 * the timed iterations.
 */
#include <cstring>
#include <map>

#include "core/chaos.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chaos;

namespace {

constexpr std::size_t kPool = 2;
constexpr std::size_t kFolds = 5;
constexpr int kMinIterations = 3;
constexpr std::size_t kDreRepeats = 10;

/** The training corpus: 3 machines x 4 workloads x 2 runs at duration
 *  scale 0.05, about 1,600 rows. Two runs per workload give the grouped
 *  k-fold enough groups for 5 folds. */
CampaignConfig
corpusConfig()
{
    CampaignConfig config = traceCampaignConfig(kCorpusSeed);
    config.numMachines = 3;
    config.run.durationScale = 0.05;
    return config;
}

/** Library-internal phase times of one iteration, from the obs trace. */
struct PhaseMs
{
    double screen = 0.0;
    double stepwise = 0.0;
    double l1 = 0.0; ///< Steps 3-4 slices minus their stepwise runs.
};

PhaseMs
phasesFromObsTrace(const std::vector<obs::TraceEvent> &events)
{
    PhaseMs ms;
    std::vector<const obs::TraceEvent *> slices;
    for (const obs::TraceEvent &e : events) {
        const double dur = static_cast<double>(e.durNs) / 1e6;
        if (std::strcmp(e.name, "select.screen") == 0)
            ms.screen += dur;
        else if (std::strcmp(e.name, "stepwise.eliminate") == 0)
            ms.stepwise += dur;
        else if (std::strcmp(e.name, "select.per_machine_slices") == 0)
            slices.push_back(&e);
    }
    // The L1 fits carry no span of their own: charge them the time of
    // the per-machine slices not spent in the stepwise runs there.
    for (const obs::TraceEvent *s : slices) {
        double inner = 0.0;
        for (const obs::TraceEvent &e : events) {
            if (std::strcmp(e.name, "stepwise.eliminate") == 0 &&
                e.startNs >= s->startNs &&
                e.startNs + e.durNs <= s->startNs + s->durNs)
                inner += static_cast<double>(e.durNs) / 1e6;
        }
        ms.l1 += std::max(0.0, static_cast<double>(s->durNs) / 1e6 - inner);
    }
    return ms;
}

} // namespace

Report
runTrainCluster(const Options &opts)
{
    setGlobalThreadCount(kPool);
    // Build the pool now: its worker must not inherit the single-vCPU
    // affinity SiblingProbe gives this thread.
    globalThreadCount();
    Report report("train_cluster", opts.seed, opts.traced);
    recordHost(report, opts, kPool, kPool);

    SiblingProbe probe;
    SetupTimes setup;
    Trace trace;
    for (int r = 0; r < kSetupRepeats; ++r) {
        trace = Trace{};
        probe.settle();
        const std::uint64_t start = nowNs(), cpuStart = threadCpuNs();
        trace = collectTrace(corpusConfig());
        setup.add(start, nowNs(), threadCpuNs() - cpuStart);
    }
    const Dataset &data = trace.data;
    const CampaignConfig config = corpusConfig();
    EvaluationConfig evaluation = config.evaluation;
    evaluation.folds = kFolds;
    evaluation.seed = opts.seed;
    const EnvelopeMap envelopes = envelopesFromSpec(
        machineSpecFor(MachineClass::Core2), config.numMachines);

    if (opts.traced) {
        obs::setTraceEnabled(true);
        setSpansEnabled(true);
    }
    std::vector<double> iterMs, iterCpuMs, selectMs, cvMs, fitMs;
    std::vector<std::uint64_t> iterStartNs, iterEndNs;
    std::vector<PhaseMs> phases;
    std::vector<std::string> firstSelected;
    double firstDre = 0.0;
    std::uint64_t failed = 0;
    std::size_t foldsShort = 0, selectionChanged = 0, dreChanged = 0;
    MachinePowerModel model;

    const ProcessTimes cpuStart = processTimes();
    const std::uint64_t runStart = nowNs();
    const auto budgetNs = static_cast<std::uint64_t>(opts.seconds * 1e9);
    while (iterMs.size() < kMinIterations || nowNs() - runStart < budgetNs) {
        obs::clearTrace();
        probe.settle();
        const std::uint64_t cpu0 = threadCpuNs();
        const std::uint64_t t0 = nowNs();
        FeatureSelectionResult selection;
        EvaluationOutcome outcome;
        std::uint64_t t1 = 0, t2 = 0;
        {
            Span iteration("bench.train_iteration");
            {
                Span span("core.select_cluster_features");
                Rng rng(kCorpusSeed ^ 0xfeedfaceULL);
                selection = selectClusterFeatures(
                    data, config.featureSelection, rng);
            }
            t1 = nowNs();
            const FeatureSet features = clusterFeatureSet(selection);
            {
                Span span("core.evaluate_technique");
                outcome = evaluateTechnique(data, features,
                                            ModelType::Quadratic, envelopes,
                                            evaluation);
            }
            t2 = nowNs();
            {
                Span span("models.fit");
                model = MachinePowerModel::fit(data, features,
                                               ModelType::Quadratic,
                                               evaluation.mars);
            }
        }
        const std::uint64_t t3 = nowNs();
        iterCpuMs.push_back(static_cast<double>(threadCpuNs() - cpu0) / 1e6);
        iterMs.push_back(static_cast<double>(t3 - t0) / 1e6);
        iterStartNs.push_back(t0);
        iterEndNs.push_back(t3);
        selectMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        cvMs.push_back(static_cast<double>(t2 - t1) / 1e6);
        fitMs.push_back(static_cast<double>(t3 - t2) / 1e6);
        if (opts.traced)
            phases.push_back(phasesFromObsTrace(obs::collectTrace()));

        bool ok = true;
        if (outcome.foldsRun != kFolds) {
            ++foldsShort;
            ok = false;
        }
        if (iterMs.size() == 1) {
            firstSelected = selection.selected;
            firstDre = outcome.avgDre;
        } else {
            if (selection.selected != firstSelected) {
                ++selectionChanged;
                ok = false;
            }
            if (outcome.avgDre != firstDre) {
                ++dreChanged;
                ok = false;
            }
        }
        if (!ok)
            ++failed;
    }
    const ProcessTimes cpuEnd = processTimes();
    const double peakRss = peakRssMb();
    obs::setTraceEnabled(false);

    double repeatedDre = 0.0;
    std::size_t repeatsShort = 0;
    const FeatureSet selected{"C", firstSelected};
    for (std::size_t r = 0; r < kDreRepeats; ++r) {
        EvaluationConfig repeat = evaluation;
        repeat.seed = opts.seed * kDreRepeats + r;
        const EvaluationOutcome outcome = evaluateTechnique(
            data, selected, ModelType::Quadratic, envelopes, repeat);
        repeatsShort += outcome.foldsRun != kFolds;
        repeatedDre += outcome.avgDre / static_cast<double>(kDreRepeats);
    }

    // Each iteration corrected to an idle sibling hyperthread. Its time
    // is the bench thread's CPU time: the pool's worker runs beside it,
    // so that leaves out only steal and the probe thread's turns.
    const ProbeReadings readings = probe.readings();
    std::vector<double> iterBusy;
    for (std::size_t i = 0; i < iterMs.size(); ++i)
        iterBusy.push_back(busyShare(readings, iterStartNs[i], iterEndNs[i]));
    Undisturbed undisturbed = undisturbedTimes(iterCpuMs, iterBusy);
    const double scale = referenceScale(readings);
    for (double &ms : undisturbed.ms)
        ms *= scale;
    const double rows = static_cast<double>(data.numRows());
    const double p50 = median(undisturbed.ms);
    report.endToEnd("setup_s",
                    scale * setup.undisturbedMedianS(readings,
                                                     undisturbed.busySpeed),
                    "s");
    report.endToEnd("peak_rss_mb", peakRss, "MiB");
    report.endToEnd("throughput_sps", rows / (p50 / 1e3), "1/s");
    report.endToEnd("latency_p50_ms", p50, "ms");
    report.endToEnd("latency_p90_ms", percentile(undisturbed.ms, 0.9), "ms");
    report.endToEnd("dre_pct", 100.0 * repeatedDre, "%");

    report.diagnostic("iterations", static_cast<double>(iterMs.size()),
                      "count");
    report.diagnostic("busy_share_p50", percentile(iterBusy, 0.5), "ratio");
    report.diagnostic("busy_speed", undisturbed.busySpeed, "ratio");
    report.diagnostic("core_moves", static_cast<double>(probe.moves()),
                      "count");
    report.diagnostic("probe_floor_ms", readings.floorMs, "ms");
    report.diagnostic("probe_busy_threshold_ms", readings.thresholdMs, "ms");
    report.diagnostic("probe_idle_ms", readings.idleMs, "ms");
    report.diagnostic("iteration_whole_run_cpu_p50_ms", median(iterCpuMs),
                      "ms");
    report.diagnostic("setup_whole_run_median_s", median(setup.seconds()),
                      "s");
    report.diagnostic("train_s", p50 / 1e3, "s");
    report.diagnostic("iteration_whole_run_p50_ms", median(iterMs), "ms");
    report.diagnostic("iteration_cv_dre_pct", 100.0 * firstDre, "%");
    report.diagnostic("iteration_max_ms", percentile(iterMs, 1.0), "ms");
    report.diagnostic("trace_rows", rows, "count");
    report.diagnostic("trace_counters", static_cast<double>(trace.rowSize),
                      "count");
    report.diagnostic("selected_features",
                      static_cast<double>(firstSelected.size()), "count");

    report.gate({"train.all_folds_run", foldsShort + repeatsShort == 0,
                 "iterations_short=" + std::to_string(foldsShort) +
                     " repeats_short=" + std::to_string(repeatsShort) +
                     " folds=" + std::to_string(kFolds)});
    report.gate({"train.same_selection_every_iteration",
                 selectionChanged == 0,
                 "changed=" + std::to_string(selectionChanged) +
                     " selected=" + std::to_string(firstSelected.size())});
    report.gate({"train.same_cv_dre_every_iteration", dreChanged == 0,
                 "changed=" + std::to_string(dreChanged)});
    report.operations(iterMs.size(), failed);

    if (opts.traced) {
        auto meanOf = [&](double PhaseMs::*field) {
            double sum = 0.0;
            for (const PhaseMs &p : phases)
                sum += p.*field;
            return phases.empty() ? 0.0 : sum / static_cast<double>(phases.size());
        };
        std::map<std::string, double> layer;
        layer["train.screen_ms"] = meanOf(&PhaseMs::screen);
        layer["train.select_ms"] = median(selectMs);
        layer["train.cv_ms"] = median(cvMs);
        layer["train.fit_ms"] = median(fitMs);
        layer["train.l1_ms"] = meanOf(&PhaseMs::l1);
        layer["train.stepwise_ms"] = meanOf(&PhaseMs::stepwise);
        layer["train.cpu_per_wall"] = cpuPerWall(cpuStart, cpuEnd);
        layer["proc.cpu_per_wall"] = cpuPerWall(cpuStart, cpuEnd);
        layer["models.predict_ns_per_sample"] =
            predictNsPerSample(model, trace, 4096);
        for (const auto &[name, unit] : perLayerMetrics()) {
            const auto it = layer.find(name);
            report.perLayer(name, it == layer.end() ? 0.0 : it->second, unit);
        }
    }
    return report;
}

} // namespace perfbench
