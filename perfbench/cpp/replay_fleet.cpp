/**
 * @file
 * replay_fleet: a 1,024-machine in-process fleet at 1 Hz, replayed in
 * lockstep as fast as possible on one bench thread (pool 1).
 *
 * Every machine serves the quadratic model that set-up fits on the
 * paper's general feature set, and replays the fixed trace (campaign
 * seed kCorpusSeed) from its own offset. The workload seed draws the
 * offsets and the stormed machines. Each tick: submitTo for every
 * machine, drainOnce until the tick is evaluated,
 * AutopilotController::tick (inline retrain), FleetServer::snapshot,
 * and a LiveRollupFeed observe + aggregate over a dc/row/rack tree. A
 * seeded DriftStorm freezes the counters of a few machines once the
 * monitors have warmed up, so each episode runs the whole quarantine ->
 * retrain -> canary -> promote cycle.
 *
 * The run replays whole episodes (warm-up + kStormLeadTicks +
 * kStormRunTicks ticks), each on a fresh fleet, until the time budget
 * is spent. Episodes are deterministic: they must agree exactly on the
 * cluster DRE and the autopilot counts. Each tick is timed by the bench
 * thread's CPU time and corrected with SiblingProbe.
 */
#include <memory>

#include "autopilot/autopilot.hpp"
#include "core/pooling.hpp"
#include "faults/scenarios.hpp"
#include "obs/metrics.hpp"
#include "rollup/feed.hpp"
#include "serve/stage_metrics.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chaos;

namespace {

constexpr std::size_t kPool = 1;
constexpr std::size_t kMachines = 1024;
constexpr std::size_t kStormMachines = 4;
constexpr std::size_t kStormStaggerTicks = 25;
/** Storm onset after the monitors' warm-up, and ticks replayed after
 *  the onset: enough for every stormed machine to be promoted. */
constexpr std::size_t kStormLeadTicks = 50;
constexpr std::size_t kStormRunTicks = 850;

/** Which trace rows each machine replays; shared by every episode. */
struct Plan
{
    std::vector<std::string> ids;
    std::vector<std::string> paths;      ///< dc/row/rack placement.
    std::vector<std::size_t> traceMachine;
    std::vector<std::size_t> offset;
    std::vector<std::size_t> stormed;    ///< Fleet index per slot.
    /**
     * Monitor warm-up: one whole cycle of the longest machine trace, so
     * each drift baseline has seen every workload phase it will replay.
     * With the default 600 samples (half a cycle) a pooled model that
     * misfits one simulated machine in a later phase reads as drift:
     * seed 9 quarantined 107 clean replicas of that machine.
     */
    std::size_t warmupTicks = 0;
    std::size_t onsetTick = 0;
    std::size_t episodeTicks = 0;
};

Plan
makePlan(const Trace &trace, std::uint64_t seed)
{
    Plan plan;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    for (std::size_t m = 0; m < kMachines; ++m) {
        char id[32];
        std::snprintf(id, sizeof id, "m%04zu", m);
        plan.ids.push_back(id);
        plan.paths.push_back("dc" + std::to_string(m / 512) + "/row" +
                             std::to_string(m / 128 % 4) + "/rack" +
                             std::to_string(m / 16 % 8));
        const std::size_t tm = m % trace.machines();
        plan.traceMachine.push_back(tm);
        plan.offset.push_back(rng.uniformInt(trace.length(tm)));
    }
    std::vector<std::size_t> order(kMachines);
    for (std::size_t m = 0; m < kMachines; ++m)
        order[m] = m;
    rng.shuffle(order);
    plan.stormed.assign(order.begin(), order.begin() + kStormMachines);
    for (std::size_t tm = 0; tm < trace.machines(); ++tm)
        plan.warmupTicks = std::max(plan.warmupTicks, trace.length(tm));
    plan.onsetTick = plan.warmupTicks + kStormLeadTicks;
    plan.episodeTicks = plan.onsetTick + kStormRunTicks;
    return plan;
}

autopilot::AutopilotConfig
pilotConfig()
{
    // The `chaos autopilot` replay settings: inline, deterministic.
    autopilot::AutopilotConfig config;
    config.backgroundRetrain = false;
    config.referenceWindowSamples = 256;
    config.retrainMinSamples = 64;
    config.canaryMinSamples = 32;
    config.cooldownTicks = 60;
    return config;
}

monitor::QualityMonitorConfig
monitorConfig(const Plan &plan)
{
    monitor::QualityMonitorConfig config;
    config.warmupSamples = plan.warmupTicks;
    return config;
}

/** One fresh fleet with its monitor, autopilot and roll-up tree. */
struct Episode
{
    serve::FleetServer server;
    monitor::FleetMonitor monitor;
    std::unique_ptr<MonitorTap> tap;
    std::unique_ptr<autopilot::AutopilotController> pilot;
    rollup::RollupTree tree;
    rollup::LiveRollupFeed feed{tree};
    std::vector<serve::MachineEntry *> entries;
    DriftStorm storm;

    Episode(const Plan &plan, const MachinePowerModel &model,
            const MachinePowerModel &substitute, std::uint64_t seed)
        : monitor(monitorConfig(plan)),
          storm(DriftStormConfig{kStormMachines, plan.onsetTick,
                                 kStormStaggerTicks, seed})
    {
        const OnlineEstimatorConfig estimator = servingEstimatorConfig();
        for (const std::string &id : plan.ids)
            entries.push_back(&server.addMachine(id, model, estimator));
        monitor.attach(server);
        tap = std::make_unique<MonitorTap>(monitor, server, plan.ids);
        server.setSampleObserver(tap.get());
        pilot = std::make_unique<autopilot::AutopilotController>(
            server, monitor, pilotConfig());
        pilot->setSubstituteModel(substitute);
        pilot->start();
        for (std::size_t m = 0; m < plan.ids.size(); ++m)
            feed.place(plan.ids[m], plan.paths[m], "Core2");
    }

    ~Episode()
    {
        pilot->stop();
        server.setSampleObserver(nullptr);
        monitor.detach();
    }
};

/** When one tick ran and where its time went. */
struct TickTimes
{
    std::uint64_t startNs = 0, endNs = 0;
    double tickMs = 0.0; ///< Wall clock.
    double cpuMs = 0.0;  ///< The bench thread's CPU time (threadCpuNs).
    double submitNs = 0.0, drainNs = 0.0, autopilotNs = 0.0,
           snapshotNs = 0.0, observeNs = 0.0, aggregateNs = 0.0;
    bool retrain = false; ///< An inline retrain started in this tick.
};

/** What one episode produced. */
struct EpisodeResult
{
    std::vector<TickTimes> ticks;
    std::uint64_t submitted = 0, processed = 0, dropped = 0;
    std::size_t clusterMismatches = 0;
    double drePct = 0.0;
    std::uint64_t driftFlags = 0;
    autopilot::AutopilotStats pilot;
    std::vector<Remediation> remediation;
};

void
runEpisode(Episode &ep, const Plan &plan, const Trace &trace,
           SiblingProbe &probe, EpisodeResult &out)
{
    std::vector<double> predicted, metered;
    std::vector<std::vector<double>> stormRows(kStormMachines);
    std::vector<const double *> rowOf(kMachines);
    std::vector<double> meterOf(kMachines);
    for (std::size_t t = 0; t < plan.episodeTicks; ++t) {
        // This tick's inputs, prepared outside the timed window.
        double meterSum = 0.0;
        for (std::size_t m = 0; m < kMachines; ++m) {
            const std::size_t tm = plan.traceMachine[m];
            const std::size_t r = (plan.offset[m] + t) % trace.length(tm);
            rowOf[m] = trace.row(tm, r);
            meterOf[m] = trace.meteredW[tm][r];
            meterSum += meterOf[m];
        }
        for (std::size_t s = 0; s < kStormMachines; ++s) {
            if (!ep.storm.active(s, t))
                continue;
            const std::size_t m = plan.stormed[s];
            stormRows[s] = ep.storm.apply(
                s, t, std::vector<double>(rowOf[m], rowOf[m] + trace.rowSize));
            rowOf[m] = stormRows[s].data();
        }
        const std::uint64_t retrainsBefore = ep.pilot->stats().retrainsStarted;

        serve::FleetSnapshot snap;
        monitor::QualitySnapshot quality;
        probe.settle();
        const std::uint64_t cpu0 = threadCpuNs();
        const std::uint64_t t0 = nowNs();
        std::uint64_t t1, t2, t3, t4, t4q, t5, t6;
        {
            Span tick("bench.replay_tick");
            {
                Span span("serve.submit_to");
                for (std::size_t m = 0; m < kMachines; ++m) {
                    ep.server.submitTo(*ep.entries[m], rowOf[m],
                                       trace.rowSize, meterOf[m]);
                }
            }
            t1 = nowNs();
            {
                Span span("serve.drain_once");
                while (ep.server.processed() + ep.server.dropped() <
                       ep.server.submitted())
                    ep.server.drainOnce();
            }
            t2 = nowNs();
            {
                Span span("autopilot.tick");
                ep.pilot->tick();
            }
            t3 = nowNs();
            {
                Span span("serve.snapshot");
                snap = ep.server.snapshot();
            }
            t4 = nowNs();
            {
                Span span("monitor.snapshot");
                quality = ep.monitor.snapshot();
            }
            t4q = nowNs();
            {
                Span span("rollup.observe");
                ep.feed.observe(snap, quality);
            }
            t5 = nowNs();
            {
                Span span("rollup.aggregate");
                const rollup::NodeSummary root = ep.feed.aggregate();
                (void)root;
            }
            t6 = nowNs();
        }
        auto ns = [](std::uint64_t from, std::uint64_t to) {
            return static_cast<double>(to - from);
        };
        TickTimes times;
        times.cpuMs = ns(cpu0, threadCpuNs()) / 1e6;
        times.startNs = t0;
        times.endNs = t6;
        times.tickMs = ns(t0, t6) / 1e6;
        times.submitNs = ns(t0, t1);
        times.drainNs = ns(t1, t2);
        times.autopilotNs = ns(t2, t3);
        times.snapshotNs = ns(t3, t4);
        times.observeNs = ns(t4q, t5);
        times.aggregateNs = ns(t5, t6);
        times.retrain = ep.pilot->stats().retrainsStarted != retrainsBefore;
        out.ticks.push_back(times);

        double machineSum = 0.0;
        for (const serve::MachineSnapshot &m : snap.machines)
            machineSum += m.watts;
        if (snap.clusterW != machineSum)
            ++out.clusterMismatches;
        predicted.push_back(snap.clusterW);
        metered.push_back(meterSum);
    }
    out.submitted = ep.server.submitted();
    out.processed = ep.server.processed();
    out.dropped = ep.server.dropped();
    out.drePct = clusterDrePct(predicted, metered, kMachines);
    out.driftFlags = ep.monitor.driftEvents();
    out.pilot = ep.pilot->stats();
    for (const autopilot::MachineRemediation &r : ep.pilot->status()) {
        Remediation rem;
        rem.id = r.id;
        rem.quarantines = r.quarantines;
        rem.promotions = r.promotions;
        rem.rollbacks = r.rollbacks;
        out.remediation.push_back(rem);
    }
    for (std::size_t m : plan.stormed) {
        for (Remediation &rem : out.remediation) {
            if (rem.id == plan.ids[m])
                rem.stormed = true;
        }
    }
}

/** Set-up products every episode needs. */
struct Fixture
{
    Trace trace;
    MachinePowerModel model;
    MachinePowerModel substitute;
    Plan plan;
};

} // namespace

Report
runReplayFleet(const Options &opts)
{
    setGlobalThreadCount(kPool);
    Report report("replay_fleet", opts.seed, opts.traced);
    recordHost(report, opts, kPool, kPool);

    // Set-up: collect, fit, plan, and build the first episode's fleet.
    SiblingProbe probe;
    SetupTimes setup;
    std::vector<double> fitMs;
    Fixture fx;
    std::unique_ptr<Episode> episode;
    for (int r = 0; r < kSetupRepeats; ++r) {
        episode.reset();
        probe.settle();
        fx = Fixture{};
        const std::uint64_t start = nowNs(), cpuStart = threadCpuNs();
        fx.trace = collectTrace(kCorpusSeed);
        const std::uint64_t fitStart = nowNs();
        fx.model = fitServingModel(fx.trace.data);
        fitMs.push_back(static_cast<double>(nowNs() - fitStart) / 1e6);
        fx.substitute = fitPooledSubstitute(fx.trace.data,
                                            fx.model.featureSet());
        fx.plan = makePlan(fx.trace, opts.seed);
        episode = std::make_unique<Episode>(fx.plan, fx.model, fx.substitute,
                                            opts.seed);
        setup.add(start, nowNs(), threadCpuNs() - cpuStart);
    }

    obs::Histogram &queueWait = serve::StageMetrics::get().queueWaitUs;
    obs::Registry &registry = obs::Registry::instance();
    obs::Counter &processedCounter = registry.counter("chaos.serve.processed");
    obs::Counter &batchCounter = registry.counter(
        "chaos.serve.batches", obs::Stability::Scheduling);
    const std::vector<std::uint64_t> waitBefore = queueWait.bucketCounts();
    const std::uint64_t processedBefore = processedCounter.value();
    const std::uint64_t batchesBefore = batchCounter.value();

    if (opts.traced)
        setSpansEnabled(true);
    std::vector<EpisodeResult> results;
    const ProcessTimes cpuStart = processTimes();
    const std::uint64_t runStart = nowNs();
    const auto budgetNs = static_cast<std::uint64_t>(opts.seconds * 1e9);
    std::uint64_t monitorNs = 0, monitorCalls = 0, lastEpisodeNs = 0;
    // Whole episodes only, and none that would end past the budget
    // (the first always runs).
    do {
        const std::uint64_t episodeStart = nowNs();
        if (!episode)
            episode = std::make_unique<Episode>(fx.plan, fx.model,
                                                fx.substitute, opts.seed);
        episode->tap->setTimed(opts.traced);
        results.emplace_back();
        runEpisode(*episode, fx.plan, fx.trace, probe, results.back());
        monitorNs += episode->tap->monitorNs();
        monitorCalls += episode->tap->monitorCalls();
        episode.reset();
        lastEpisodeNs = nowNs() - episodeStart;
    } while (nowNs() - runStart + lastEpisodeNs <= budgetNs);
    const ProcessTimes cpuEnd = processTimes();
    const double peakRss = peakRssMb();

    // Every tick of every episode, and the share of it the sibling
    // hyperthread was busy.
    const ProbeReadings readings = probe.readings();
    std::vector<TickTimes> ticks;
    std::vector<double> tickMs, tickCpuMs, tickBusy;
    std::uint64_t submitted = 0, processed = 0, dropped = 0;
    std::size_t mismatches = 0, divergent = 0;
    const EpisodeResult &first = results.front();
    for (const EpisodeResult &r : results) {
        for (const TickTimes &t : r.ticks) {
            ticks.push_back(t);
            tickMs.push_back(t.tickMs);
            tickCpuMs.push_back(t.cpuMs);
            tickBusy.push_back(busyShare(readings, t.startNs, t.endNs));
        }
        submitted += r.submitted;
        processed += r.processed;
        dropped += r.dropped;
        mismatches += r.clusterMismatches;
        if (r.drePct != first.drePct ||
            r.pilot.quarantines != first.pilot.quarantines ||
            r.pilot.promotions != first.pilot.promotions ||
            r.pilot.rollbacks != first.pilot.rollbacks ||
            r.driftFlags != first.driftFlags)
            ++divergent;
    }

    ReplayAccounting totals;
    totals.submitted = submitted;
    totals.processed = processed;
    totals.dropped = dropped;
    totals.ticks = tickMs.size();
    totals.clusterSumMismatches = mismatches;
    report.gates(replayAccountingGates(totals));
    for (const EpisodeResult &r : results)
        report.gates(remediationGates(r.remediation));
    report.gate({"replay.episodes_identical", divergent == 0,
                 "episodes=" + std::to_string(results.size()) +
                     " divergent=" + std::to_string(divergent)});
    report.operations(submitted, submitted - processed);

    // Every tick's CPU time corrected to an idle sibling
    // (undisturbedTimes), so every phase of the episode (warm-up, storm,
    // quarantine, inline retrain, canary) keeps its weight. Each layer's
    // wall time is scaled by its tick's correction.
    Undisturbed undisturbed = undisturbedTimes(tickCpuMs, tickBusy);
    const double scale = referenceScale(readings);
    for (double &ms : undisturbed.ms)
        ms *= scale;
    const double machines = static_cast<double>(kMachines);
    TickTimes sum;
    std::vector<double> autopilotUs, retrainMs;
    double sumMs = 0.0;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
        const TickTimes &t = ticks[i];
        const double f = undisturbed.ms[i] / t.tickMs;
        sumMs += undisturbed.ms[i];
        sum.submitNs += f * t.submitNs;
        sum.drainNs += f * t.drainNs;
        sum.snapshotNs += f * t.snapshotNs;
        sum.observeNs += f * t.observeNs;
        sum.aggregateNs += f * t.aggregateNs;
        autopilotUs.push_back(f * t.autopilotNs / 1e3);
        if (t.retrain)
            retrainMs.push_back(f * t.autopilotNs / 1e6);
    }
    report.endToEnd("setup_s",
                    scale * setup.undisturbedMedianS(readings,
                                                     undisturbed.busySpeed),
                    "s");
    report.endToEnd("peak_rss_mb", peakRss, "MiB");
    const double tickCount = static_cast<double>(ticks.size());
    report.endToEnd("throughput_sps", machines * 1e3 * tickCount / sumMs,
                    "1/s");
    report.endToEnd("latency_p50_ms", percentile(undisturbed.ms, 0.5), "ms");
    report.endToEnd("latency_p90_ms", percentile(undisturbed.ms, 0.9), "ms");
    report.endToEnd("dre_pct", first.drePct, "%");

    report.diagnostic("episodes", static_cast<double>(results.size()), "count");
    report.diagnostic("ticks", static_cast<double>(tickMs.size()), "count");
    report.diagnostic("busy_share_p50", percentile(tickBusy, 0.5), "ratio");
    report.diagnostic("busy_speed", undisturbed.busySpeed, "ratio");
    report.diagnostic("core_moves", static_cast<double>(probe.moves()),
                      "count");
    report.diagnostic("probe_floor_ms", readings.floorMs, "ms");
    report.diagnostic("probe_busy_threshold_ms", readings.thresholdMs, "ms");
    report.diagnostic("probe_idle_ms", readings.idleMs, "ms");
    report.diagnostic("tick_whole_run_cpu_p50_ms", percentile(tickCpuMs, 0.5),
                      "ms");
    report.diagnostic("setup_whole_run_median_s", median(setup.seconds()),
                      "s");
    report.diagnostic("tick_whole_run_p50_ms", percentile(tickMs, 0.5), "ms");
    report.diagnostic("tick_whole_run_p90_ms", percentile(tickMs, 0.9), "ms");
    report.diagnostic("tick_p99_ms", percentile(undisturbed.ms, 0.99), "ms");
    report.diagnostic("tick_p99.9_ms", percentile(undisturbed.ms, 0.999), "ms");
    report.diagnostic("tick_whole_run_p99_ms", percentile(tickMs, 0.99), "ms");
    report.diagnostic("quarantines_per_episode",
                      static_cast<double>(first.pilot.quarantines), "count");
    report.diagnostic("promotions_per_episode",
                      static_cast<double>(first.pilot.promotions), "count");
    report.diagnostic("rollbacks_per_episode",
                      static_cast<double>(first.pilot.rollbacks), "count");
    report.diagnostic("drift_flags_per_episode",
                      static_cast<double>(first.driftFlags), "count");

    if (opts.traced) {
        std::vector<std::uint64_t> waitDelta = queueWait.bucketCounts();
        for (std::size_t i = 0; i < waitDelta.size(); ++i)
            waitDelta[i] -= waitBefore[i];
        // Per-layer times corrected like the ticks they ran in.
        const double samples = tickCount * machines;
        std::map<std::string, double> layer;
        layer["serve.submit_ns_per_sample"] = sum.submitNs / samples;
        layer["serve.drain_ns_per_sample"] = sum.drainNs / samples;
        layer["serve.queue_wait_us.p50"] =
            bucketPercentile(queueWait.bounds(), waitDelta, 0.5);
        layer["serve.queue_wait_us.p90"] =
            bucketPercentile(queueWait.bounds(), waitDelta, 0.9);
        layer["serve.batch_size.mean"] =
            static_cast<double>(processedCounter.value() - processedBefore) /
            static_cast<double>(batchCounter.value() - batchesBefore);
        layer["serve.snapshot_us_per_machine"] = sum.snapshotNs / 1e3 / samples;
        layer["models.predict_ns_per_sample"] =
            predictNsPerSample(fx.model, fx.trace, kMachines);
        layer["monitor.observe_ns_per_sample"] =
            monitorCalls ? static_cast<double>(monitorNs) /
                               static_cast<double>(monitorCalls)
                         : 0.0;
        layer["monitor.drift_flags"] = static_cast<double>(first.driftFlags);
        layer["autopilot.tick_us.p50"] = median(autopilotUs);
        layer["autopilot.retrain_ms"] = retrainMs.empty() ? 0.0 : median(retrainMs);
        layer["autopilot.quarantines"] =
            static_cast<double>(first.pilot.quarantines);
        layer["autopilot.promotions"] =
            static_cast<double>(first.pilot.promotions);
        layer["autopilot.rollbacks"] = static_cast<double>(first.pilot.rollbacks);
        layer["rollup.observe_us_per_machine"] = sum.observeNs / 1e3 / samples;
        layer["rollup.aggregate_us_per_machine"] =
            sum.aggregateNs / 1e3 / samples;
        layer["train.fit_ms"] = median(fitMs);
        layer["proc.cpu_per_wall"] = cpuPerWall(cpuStart, cpuEnd);
        for (const auto &[name, unit] : perLayerMetrics()) {
            const auto it = layer.find(name);
            report.perLayer(name, it == layer.end() ? 0.0 : it->second, unit);
        }
    }
    return report;
}

} // namespace perfbench
