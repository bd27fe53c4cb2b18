/**
 * @file
 * chaosbench: runs one benchmark workload in this process.
 *
 *   chaosbench --workload wire_fleet|replay_fleet|train_cluster
 *              --seed N --seconds S [--trace 0|1] [--out-dir DIR]
 *
 * Prints a readable report and, as its last line, one JSON object
 * with every metric, the correctness gates and the host record. With
 * --trace 1 it also records spans around its calls into the library,
 * reports the per-layer metrics and writes the spans to
 * DIR/<workload>-seed<N>.spans.json. Exits 1 when a correctness gate
 * fails, 2 on a usage error.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<const char *, const char *>> &
perLayerMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> names = {
        {"net.encode_ns_per_sample", "ns"},
        {"net.decode_ns_per_sample", "ns"},
        {"net.send_blocked_pct", "%"},
        {"net.credit_frames_per_ksample", "count"},
        {"net.generator_late_p99_ms", "ms"},
        {"serve.submit_ns_per_sample", "ns"},
        {"serve.drain_ns_per_sample", "ns"},
        {"serve.queue_wait_us.p50", "us"},
        {"serve.queue_wait_us.p90", "us"},
        {"serve.batch_size.mean", "count"},
        {"serve.snapshot_us_per_machine", "us"},
        {"models.predict_ns_per_sample", "ns"},
        {"monitor.observe_ns_per_sample", "ns"},
        {"monitor.drift_flags", "count"},
        {"autopilot.tick_us.p50", "us"},
        {"autopilot.retrain_ms", "ms"},
        {"autopilot.quarantines", "count"},
        {"autopilot.promotions", "count"},
        {"autopilot.rollbacks", "count"},
        {"rollup.observe_us_per_machine", "us"},
        {"rollup.aggregate_us_per_machine", "us"},
        {"train.screen_ms", "ms"},
        {"train.select_ms", "ms"},
        {"train.cv_ms", "ms"},
        {"train.fit_ms", "ms"},
        {"train.l1_ms", "ms"},
        {"train.stepwise_ms", "ms"},
        {"train.cpu_per_wall", "ratio"},
        {"proc.cpu_per_wall", "ratio"},
    };
    return names;
}

} // namespace perfbench

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "chaosbench: %s\nusage: chaosbench --workload "
                 "wire_fleet|replay_fleet|train_cluster --seed N "
                 "--seconds S [--trace 0|1] [--out-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opts.workload = value;
            else if (flag == "--seed")
                opts.seed = std::stoull(value);
            else if (flag == "--seconds")
                opts.seconds = std::stod(value);
            else if (flag == "--trace")
                opts.traced = value == "1";
            else if (flag == "--out-dir")
                opts.outDir = value;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (!(opts.seconds > 0.0))
        return usage("--seconds must be positive");

    Report (*run)(const Options &) = nullptr;
    if (opts.workload == "wire_fleet")
        run = runWireFleet;
    else if (opts.workload == "replay_fleet")
        run = runReplayFleet;
    else if (opts.workload == "train_cluster")
        run = runTrainCluster;
    else
        return usage("unknown workload");

    // Library progress logging would interleave with the report.
    chaos::setLogLevel(chaos::LogLevel::Warn);
    const double loadStart = loadAverage1();
    try {
        Report report = run(opts);
        report.host("loadavg1_start", loadStart);
        report.host("loadavg1_end", loadAverage1());
        if (opts.traced) {
            const std::vector<SpanRecord> spans = collectSpans();
            report.selfTimes(selfTimeByModule(spans));
            if (!opts.outDir.empty()) {
                std::ofstream out(opts.outDir + "/" + opts.workload + "-seed" +
                                  std::to_string(opts.seed) + ".spans.json");
                out << spansJson(spans);
            }
        }
        report.printText(std::cout);
        std::cout << report.toJson() << std::endl;
        return report.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "chaosbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }
}
