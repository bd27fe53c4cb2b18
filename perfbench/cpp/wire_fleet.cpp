/**
 * @file
 * wire_fleet: wire bytes in -> watts out over loopback TCP.
 *
 * One load thread (this one) drives 4 IngestClient connections into a
 * ChaosIngestServer in front of a 64-machine FleetServer with a
 * FleetMonitor attached; the pool is 1, so the busy threads are the
 * load, poll and drainer threads. Rows are full catalog rows of the
 * seeded trace. Each connection owns a disjoint quarter of the
 * machines, so a machine's arrival order is its send order.
 *
 * Sample i of a phase belongs to tick i / 64 and machine i % 64, whose
 * row is trace row (offset[machine] + tick). Two phases follow each
 * other on fresh connections:
 *  - closed loop, half the time budget: every connection sends as
 *    fast as its credit window allows (the client's default write
 *    coalescing), ending on a tick boundary;
 *  - open loop, the other half (run on, up to twice that, until enough
 *    windows were quiet; see kWindowNs): a fixed 20,000 samples/s,
 *    each sample scheduled at its own due time and written on its own
 *    (no coalescing, as from independent machines). The sample
 *    observer logs each evaluation, and latency runs from the due
 *    time.
 *
 * Gates: exact accounting at both ends, every sent sample evaluated
 * once and paired with its send, and one seeded machine's estimates
 * bitwise equal to an in-process OnlinePowerEstimator fed its rows.
 */
#include <sys/prctl.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "net/client.hpp"
#include "net/ingest_server.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/stage_metrics.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace chaos;

namespace {

constexpr std::size_t kPool = 1;
constexpr std::size_t kBusyThreads = 3; // Load, poll, drainer.
constexpr std::size_t kMachines = 64;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPerConnection = kMachines / kConnections;
constexpr double kOpenLoopRate = 20000.0;
/**
 * Throughput and latency are taken per window of this length, and the
 * median over the quiet windows is reported: those in which other
 * guests stole at most kQuietStealPct of the host's CPU time. Windows
 * with more steal read several times the latency (p90 0.3 ms becomes
 * 1-2 ms at 5% steal). The open loop runs on, up to twice its length,
 * until kMinQuietWindows are quiet; failing that, the least stolen
 * windows are used.
 */
constexpr std::uint64_t kWindowNs = 250'000'000;
constexpr double kQuietStealPct = 1.0;
constexpr std::size_t kMinQuietWindows = 20;
/**
 * Validity of the open loop: over the quiet windows, the generator's
 * lateness p90 may be at most this share of the latency p90, or the
 * latency figures would time the generator instead of the server.
 */
constexpr double kMaxLateShare = 0.5;

/** A fleet behind a live ingest server, plus its quality monitor. */
struct Rig
{
    serve::FleetServer fleet;
    monitor::FleetMonitor monitor;
    std::unique_ptr<MonitorTap> tap;
    std::unique_ptr<net::ChaosIngestServer> ingest;
    std::vector<std::string> ids;

    explicit Rig(const MachinePowerModel &model)
    {
        const OnlineEstimatorConfig estimator = servingEstimatorConfig();
        for (std::size_t m = 0; m < kMachines; ++m) {
            char id[16];
            std::snprintf(id, sizeof id, "w%02zu", m);
            ids.push_back(id);
            fleet.addMachine(id, model, estimator);
        }
        monitor.attach(fleet);
        tap = std::make_unique<MonitorTap>(monitor, fleet, ids);
        fleet.setSampleObserver(tap.get());
        ingest = std::make_unique<net::ChaosIngestServer>(fleet);
        ingest->start();
        fleet.start();
    }

    ~Rig()
    {
        ingest->stop();
        fleet.stop();
        fleet.setSampleObserver(nullptr);
        monitor.detach();
    }

    std::vector<std::unique_ptr<net::IngestClient>>
    connect(std::size_t coalesceBytes) const
    {
        std::vector<std::unique_ptr<net::IngestClient>> clients;
        for (std::size_t c = 0; c < kConnections; ++c) {
            net::IngestClientConfig config;
            config.port = ingest->port();
            config.coalesceBytes = coalesceBytes;
            clients.push_back(std::make_unique<net::IngestClient>(config));
            clients.back()->connect();
        }
        return clients;
    }
};

/** Client-side totals of one phase's connections. */
struct ClientTotals
{
    std::uint64_t sent = 0, accepted = 0, rejected = 0;

    void add(const std::vector<std::unique_ptr<net::IngestClient>> &clients)
    {
        for (const auto &c : clients) {
            sent += c->sent();
            accepted += c->accepted();
            rejected += c->rejected();
        }
    }
};

/** Drain every connection's acks, then wait for the fleet to finish. */
void
settle(std::vector<std::unique_ptr<net::IngestClient>> &clients,
       serve::FleetServer &fleet)
{
    for (auto &c : clients)
        raiseIf(!c->drain(), "wire_fleet: acks stalled");
    fleet.waitIdle();
}

} // namespace

Report
runWireFleet(const Options &opts)
{
    setGlobalThreadCount(kPool);
    Report report("wire_fleet", opts.seed, opts.traced);
    recordHost(report, opts, kPool, kBusyThreads);

    // Set-up: collect, fit, start the servers and connect.
    std::vector<double> setupS, fitMs;
    Trace trace;
    MachinePowerModel model;
    std::unique_ptr<Rig> rig;
    std::vector<std::unique_ptr<net::IngestClient>> clients;
    for (int r = 0; r < kSetupRepeats; ++r) {
        clients.clear();
        rig.reset();
        trace = Trace{};
        const std::uint64_t start = nowNs();
        trace = collectTrace(opts.seed);
        const std::uint64_t fitStart = nowNs();
        model = fitServingModel(trace.data);
        fitMs.push_back(static_cast<double>(nowNs() - fitStart) / 1e6);
        rig = std::make_unique<Rig>(model);
        clients = rig->connect(net::IngestClientConfig{}.coalesceBytes);
        setupS.push_back(static_cast<double>(nowNs() - start) / 1e9);
    }

    Rng rng(opts.seed * 0x2545f4914f6cdd1dULL + 5);
    std::vector<std::size_t> offset(kMachines);
    for (std::size_t m = 0; m < kMachines; ++m)
        offset[m] = rng.uniformInt(trace.length(m % trace.machines()));
    const std::size_t spot = rng.uniformInt(kMachines);
    auto rowOf = [&](std::size_t m, std::size_t tick) {
        const std::size_t tm = m % trace.machines();
        return (offset[m] + tick) % trace.length(tm);
    };
    auto sendSample = [&](net::IngestClient &client, std::size_t i) {
        const std::size_t m = i % kMachines;
        const std::size_t tick = i / kMachines;
        const std::size_t tm = m % trace.machines();
        const std::size_t r = rowOf(m, tick);
        client.send(tick, rig->ids[m], trace.row(tm, r), trace.rowSize,
                    trace.meteredW[tm][r]);
    };
    const std::size_t window = net::IngestClientConfig{}.window;

    if (opts.traced) {
        setSpansEnabled(true);
        rig->tap->setTimed(true);
    }
    const ProcessTimes cpuStart = processTimes();
    const HostCpu hostStart = hostCpu();
    const std::uint64_t phaseNs =
        static_cast<std::uint64_t>(opts.seconds * 1e9 / 2.0);

    // ---- Closed loop ---------------------------------------------------
    std::uint64_t blockedNs = 0;
    std::size_t closedSamples = 0;
    std::vector<std::uint64_t> tickSentNs; // Each completed tick.
    tickSentNs.reserve(1 << 16);
    const std::uint64_t closedStart = nowNs();
    StealWindows closedSteal(closedStart, kWindowNs);
    for (;; ++closedSamples) {
        if (closedSamples % kMachines == 0) {
            const std::uint64_t now = nowNs();
            closedSteal.poll(now);
            if (closedSamples > 0)
                tickSentNs.push_back(now);
            if (now - closedStart >= phaseNs)
                break; // On a tick boundary: every machine got as many.
        }
        const std::size_t m = closedSamples % kMachines;
        net::IngestClient &client = *clients[m / kPerConnection];
        if (client.sent() - client.accepted() - client.rejected() >= window) {
            Span span("net.wait_credit");
            const std::uint64_t waitStart = nowNs();
            while (client.sent() - client.accepted() - client.rejected() >=
                   window) {
                raiseIf(client.pump(true) == 0, "wire_fleet: acks stalled");
            }
            blockedNs += nowNs() - waitStart;
        }
        sendSample(client, closedSamples);
    }
    const std::uint64_t closedSendEnd = nowNs();
    settle(clients, rig->fleet);
    const std::uint64_t closedEnd = nowNs();
    ClientTotals totals;
    totals.add(clients);
    clients.clear();
    const std::size_t closedTicks = closedSamples / kMachines;
    const HostCpu hostMid = hostCpu();

    // ---- Open loop -----------------------------------------------------
    // The first baseTicks (half the budget at the paced rate) are always
    // sent; the cluster DRE is taken over them, so it is deterministic.
    const std::size_t baseTicks = static_cast<std::size_t>(
        kOpenLoopRate * static_cast<double>(phaseNs) / 1e9 /
        static_cast<double>(kMachines));
    const std::size_t baseSamples = baseTicks * kMachines;
    ArrivalLog log(kMachines);
    log.reserve(2 * baseTicks);
    std::vector<std::uint64_t> dueNs(2 * baseSamples), sentNs(2 * baseSamples);
    clients = rig->connect(0);
    obs::Histogram &queueWait = serve::StageMetrics::get().queueWaitUs;
    obs::Registry &registry = obs::Registry::instance();
    obs::Counter &processedCounter = registry.counter("chaos.serve.processed");
    obs::Counter &batchCounter = registry.counter(
        "chaos.serve.batches", obs::Stability::Scheduling);
    const std::vector<std::uint64_t> waitBefore = queueWait.bucketCounts();
    const std::uint64_t processedBefore = processedCounter.value();
    const std::uint64_t batchesBefore = batchCounter.value();
    rig->tap->setLog(&log);

    // Sleep, not spin, between due times: a spinning generator keeps a
    // core busy that the poll and drain threads may need. The default
    // 50 us timer slack would be as long as the gap between samples.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    PacedSchedule schedule{nowNs() + 2'000'000, kOpenLoopRate};
    StealWindows openSteal(schedule.startNs, kWindowNs);
    std::size_t openSamples = 0;
    for (;; ++openSamples) {
        if (openSamples % kMachines == 0 && openSamples >= baseSamples &&
            (openSteal.quietCount(kQuietStealPct) >= kMinQuietWindows ||
             openSamples == dueNs.size()))
            break;
        const std::size_t i = openSamples;
        const std::size_t m = i % kMachines;
        const std::uint64_t due = schedule.dueNs(i);
        const std::uint64_t now = nowNs();
        openSteal.poll(now);
        if (now < due)
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        dueNs[i] = due;
        log.noteSent(m, due);
        {
            Span span("net.client_send");
            sendSample(*clients[m / kPerConnection], i);
        }
        sentNs[i] = nowNs();
    }
    openSteal.poll(schedule.dueNs(openSamples));
    dueNs.resize(openSamples);
    sentNs.resize(openSamples);
    const std::size_t openTicks = openSamples / kMachines;
    settle(clients, rig->fleet);
    rig->tap->setLog(nullptr);
    const ProcessTimes cpuEnd = processTimes();
    // Before the analysis below, whose buffers grow with the samples.
    const double peakRss = peakRssMb();
    const HostCpu hostEnd = hostCpu();
    totals.add(clients);
    std::vector<std::uint64_t> waitDelta = queueWait.bucketCounts();
    for (std::size_t i = 0; i < waitDelta.size(); ++i)
        waitDelta[i] -= waitBefore[i];
    const double batchMean =
        static_cast<double>(processedCounter.value() - processedBefore) /
        static_cast<double>(batchCounter.value() - batchesBefore);
    clients.clear();

    // ---- Checks ----------------------------------------------------------
    const net::IngestStats stats = rig->ingest->stats();
    WireAccounting acct;
    acct.sent = totals.sent;
    acct.accepted = totals.accepted;
    acct.rejected = totals.rejected;
    acct.badFrames = stats.badFrames;
    acct.serverAccepted = stats.samplesAccepted;
    acct.processed = rig->fleet.processed();
    acct.dropped = rig->fleet.dropped();
    report.gates(wireAccountingGates(acct));
    std::size_t unpaired = 0;
    for (std::size_t m = 0; m < kMachines; ++m) {
        if (log.sentCount(m) != log.evaluatedCount(m) ||
            log.sentCount(m) != openTicks)
            ++unpaired;
    }
    report.gate({"wire.every_sample_paired_with_its_evaluation",
                 log.complete() && unpaired == 0,
                 "machines_unpaired=" + std::to_string(unpaired)});

    // Spot check: the same rows through an in-process estimator.
    {
        OnlinePowerEstimator oracle(model, servingEstimatorConfig());
        const std::size_t tm = spot % trace.machines();
        auto feed = [&](std::size_t tick) {
            const std::size_t r = rowOf(spot, tick);
            const double *row = trace.row(tm, r);
            return oracle.estimateWithReference(
                std::vector<double>(row, row + trace.rowSize),
                trace.meteredW[tm][r]);
        };
        for (std::size_t t = 0; t < closedTicks; ++t)
            feed(t);
        std::size_t differ = 0;
        for (std::size_t t = 0; t < openTicks && log.complete(); ++t) {
            if (feed(t) != log.watts(spot, t))
                ++differ;
        }
        const serve::FleetSnapshot snap = rig->fleet.snapshot();
        const double served = snap.machines[spot].modelW;
        report.gate({"wire.spot_machine_bitwise_equals_in_process",
                     differ == 0 && served == oracle.lastEstimateW() &&
                         snap.machines[spot].id == rig->ids[spot],
                     "machine=" + rig->ids[spot] +
                         " samples=" + std::to_string(oracle.samples()) +
                         " differing=" + std::to_string(differ)});
    }
    report.operations(acct.sent, acct.sent - acct.processed);

    // Eq. 5 cluster power over the base open-loop ticks vs the meter.
    std::vector<double> predicted(baseTicks, 0.0), metered(baseTicks, 0.0);
    if (log.complete()) {
        for (std::size_t t = 0; t < baseTicks; ++t) {
            for (std::size_t m = 0; m < kMachines; ++m) {
                predicted[t] += log.watts(m, t);
                metered[t] += trace.meteredW[m % trace.machines()][rowOf(m, t)];
            }
        }
    }

    std::vector<std::uint64_t> latencyDueNs;
    const std::vector<double> latency = log.latenciesMs(&latencyDueNs);
    const std::vector<double> late = latenessMs(dueNs, sentNs);
    const std::size_t minPerWindow = static_cast<std::size_t>(
        kOpenLoopRate * static_cast<double>(kWindowNs) / 1e9 / 2.0);
    const std::vector<std::size_t> closedQuiet = quietWindows(
        closedSteal.stealPct(), kQuietStealPct, kMinQuietWindows);
    const std::vector<std::size_t> openQuiet = quietWindows(
        openSteal.stealPct(), kQuietStealPct, kMinQuietWindows);
    const double latencyP90 = medianAt(
        windowPercentiles(latencyDueNs, latency, schedule.startNs, kWindowNs,
                          0.9, minPerWindow),
        openQuiet);
    auto quietLateness = [&](double q) {
        return medianAt(windowPercentiles(dueNs, late, schedule.startNs,
                                          kWindowNs, q, minPerWindow),
                        openQuiet);
    };
    const double lateP90 = quietLateness(0.9);
    report.gate(pacingGate(lateP90, latencyP90, kMaxLateShare));
    report.endToEnd("setup_s", median(setupS), "s");
    report.endToEnd("peak_rss_mb", peakRss, "MiB");
    report.endToEnd("throughput_sps",
                    medianAt(windowRates(tickSentNs, closedStart,
                                         closedSendEnd, kWindowNs,
                                         static_cast<double>(kMachines)),
                             closedQuiet),
                    "1/s");
    report.endToEnd("latency_p50_ms",
                    medianAt(windowPercentiles(latencyDueNs, latency,
                                               schedule.startNs, kWindowNs,
                                               0.5, minPerWindow),
                             openQuiet),
                    "ms");
    report.endToEnd("latency_p90_ms", latencyP90, "ms");
    report.endToEnd("dre_pct", clusterDrePct(predicted, metered, kMachines),
                    "%");

    report.diagnostic("closed_loop_whole_run_sps",
                      static_cast<double>(closedSamples) /
                          (static_cast<double>(closedEnd - closedStart) / 1e9),
                      "1/s");
    report.diagnostic("closed_loop_quiet_windows",
                      static_cast<double>(closedSteal.quietCount(kQuietStealPct)),
                      "count");
    report.diagnostic("open_loop_windows",
                      static_cast<double>(openSteal.stealPct().size()), "count");
    report.diagnostic("open_loop_quiet_windows",
                      static_cast<double>(openSteal.quietCount(kQuietStealPct)),
                      "count");
    report.diagnostic("latency_whole_run_p50_ms", percentile(latency, 0.5),
                      "ms");
    report.diagnostic("latency_whole_run_p90_ms", percentile(latency, 0.9),
                      "ms");
    report.diagnostic("closed_loop_samples",
                      static_cast<double>(closedSamples), "count");
    report.diagnostic("closed_loop_send_s",
                      static_cast<double>(closedSendEnd - closedStart) / 1e9,
                      "s");
    report.diagnostic("open_loop_samples", static_cast<double>(latency.size()),
                      "count");
    report.diagnostic("open_loop_rate", kOpenLoopRate, "1/s");
    report.diagnostic("latency_p99_ms", percentile(latency, 0.99), "ms");
    report.diagnostic("latency_p99.9_ms", percentile(latency, 0.999), "ms");
    report.diagnostic("generator_late_quiet_p90_ms", lateP90, "ms");
    report.diagnostic("generator_late_whole_run_p50_ms", percentile(late, 0.5),
                      "ms");
    report.diagnostic("generator_late_whole_run_p99_ms",
                      percentile(late, 0.99), "ms");
    report.diagnostic("closed_loop_steal_pct", stealPct(hostStart, hostMid),
                      "%");
    report.diagnostic("open_loop_steal_pct", stealPct(hostMid, hostEnd), "%");
    report.diagnostic("drift_flags", static_cast<double>(rig->monitor.driftEvents()),
                      "count");

    if (opts.traced) {
        std::map<std::string, double> layer;
        // Encode and decode the rows this run sent, outside the run: one
        // warm-up pass sizes the buffers, then passes are timed until
        // at least 50 ms have been.
        const std::size_t n = 16384;
        std::vector<std::uint8_t> wire;
        auto encodeAll = [&] {
            Span span("net.encode_sample");
            wire.clear();
            net::SampleFrame frame;
            frame.hasMetered = true;
            const std::uint64_t start = nowNs();
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t m = i % kMachines, tm = m % trace.machines();
                const std::size_t r = rowOf(m, i / kMachines);
                frame.tick = i / kMachines;
                frame.machineId = rig->ids[m];
                frame.meteredW = trace.meteredW[tm][r];
                frame.row.assign(trace.row(tm, r),
                                 trace.row(tm, r) + trace.rowSize);
                net::encodeSample(frame, wire);
            }
            return nowNs() - start;
        };
        auto decodeAll = [&] {
            Span span("net.frame_reader");
            net::FrameReader reader;
            net::Frame frame;
            std::size_t frames = 0;
            const std::size_t chunk = 64 * 1024;
            const std::uint64_t start = nowNs();
            for (std::size_t off = 0; off < wire.size(); off += chunk) {
                reader.append(wire.data() + off,
                              std::min(chunk, wire.size() - off));
                while (reader.next(frame) == net::DecodeStatus::Ok)
                    ++frames;
            }
            const std::uint64_t elapsed = nowNs() - start;
            raiseIf(frames != n, "wire_fleet: captured frames did not decode");
            return elapsed;
        };
        encodeAll();
        std::uint64_t encodeNs = 0, encoded = 0;
        while (encodeNs < 50'000'000) {
            encodeNs += encodeAll();
            encoded += n;
        }
        decodeAll();
        std::uint64_t decodeNs = 0, decoded = 0;
        while (decodeNs < 50'000'000) {
            decodeNs += decodeAll();
            decoded += n;
        }
        std::uint64_t snapNs = 0;
        for (int i = 0; i < 20; ++i) {
            Span span("serve.snapshot");
            const std::uint64_t start = nowNs();
            const serve::FleetSnapshot snap = rig->fleet.snapshot();
            snapNs += nowNs() - start;
        }
        layer["net.encode_ns_per_sample"] =
            static_cast<double>(encodeNs) / static_cast<double>(encoded);
        layer["net.decode_ns_per_sample"] =
            static_cast<double>(decodeNs) / static_cast<double>(decoded);
        layer["net.send_blocked_pct"] =
            100.0 * static_cast<double>(blockedNs) /
            static_cast<double>(closedSendEnd - closedStart);
        layer["net.credit_frames_per_ksample"] =
            1000.0 * static_cast<double>(stats.creditsSent) /
            static_cast<double>(stats.samplesAccepted);
        layer["net.generator_late_p99_ms"] = quietLateness(0.99);
        layer["serve.queue_wait_us.p50"] =
            bucketPercentile(queueWait.bounds(), waitDelta, 0.5);
        layer["serve.queue_wait_us.p90"] =
            bucketPercentile(queueWait.bounds(), waitDelta, 0.9);
        layer["serve.batch_size.mean"] = batchMean;
        layer["serve.snapshot_us_per_machine"] =
            static_cast<double>(snapNs) / 1e3 / 20.0 / kMachines;
        layer["models.predict_ns_per_sample"] =
            predictNsPerSample(model, trace, 4096);
        layer["monitor.observe_ns_per_sample"] =
            rig->tap->monitorCalls()
                ? static_cast<double>(rig->tap->monitorNs()) /
                      static_cast<double>(rig->tap->monitorCalls())
                : 0.0;
        layer["monitor.drift_flags"] =
            static_cast<double>(rig->monitor.driftEvents());
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
