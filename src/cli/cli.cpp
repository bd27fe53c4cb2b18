#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <optional>
#include <thread>

#include "autopilot/autopilot.hpp"
#include "core/chaos.hpp"
#include "core/pooling.hpp"
#include "faults/scenarios.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "core/model_store.hpp"
#include "linalg/matrix.hpp"
#include "models/linear.hpp"
#include "monitor/exporter.hpp"
#include "net/ingest_server.hpp"
#include "net/loadgen.hpp"
#include "net/socket.hpp"
#include "monitor/fleet_monitor.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "rollup/feed.hpp"
#include "rollup/synthetic.hpp"
#include "sim/fleet_topology.hpp"
#include "oscounters/counter_catalog.hpp"
#include "oscounters/etw_session.hpp"
#include "serve/fleet_store.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"
#include "trace/trace_io.hpp"
#include "util/result.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace chaos {

namespace {

/** Parsed flags: positionals plus --key value pairs. */
struct ParsedArgs
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    std::string flagOr(const std::string &key,
                       const std::string &fallback) const
    {
        const auto it = flags.find(key);
        return it != flags.end() ? it->second : fallback;
    }

    /** True when --key is "1" or "true". */
    bool flagSet(const std::string &key) const
    {
        const std::string value = flagOr(key, "0");
        return value == "1" || value == "true";
    }

    /**
     * --key as a whole integer in [min, max], or @p fallback when the
     * flag is absent. Raises RecoverableError naming the flag on
     * anything else: signs, trailing garbage, out-of-range values.
     */
    std::uint64_t
    integer(const std::string &key, std::uint64_t fallback,
            std::uint64_t min = 0,
            std::uint64_t max =
                std::numeric_limits<std::uint64_t>::max()) const
    {
        const auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        const std::string &text = it->second;
        std::uint64_t value = 0;
        const auto [end, ec] = std::from_chars(
            text.data(), text.data() + text.size(), value);
        if (ec != std::errc() || end != text.data() + text.size() ||
            value < min || value > max) {
            raise("--" + key + " must be an integer " +
                  (max == std::numeric_limits<std::uint64_t>::max()
                       ? ">= " + std::to_string(min)
                       : "in " + std::to_string(min) + ".." +
                             std::to_string(max)) +
                  ", got '" + text + "'");
        }
        return value;
    }

    /**
     * --key as a finite number >= 0, or @p fallback when absent;
     * raises RecoverableError naming the flag otherwise.
     */
    double number(const std::string &key, double fallback) const
    {
        const auto it = flags.find(key);
        if (it == flags.end())
            return fallback;
        const std::string &text = it->second;
        double value = 0.0;
        const auto [end, ec] = std::from_chars(
            text.data(), text.data() + text.size(), value);
        if (ec != std::errc() || end != text.data() + text.size() ||
            !std::isfinite(value) || value < 0.0) {
            raise("--" + key + " must be a finite number >= 0, got '" +
                  text + "'");
        }
        return value;
    }
};

/** Write @p content to @p path, raising RecoverableError on failure. */
void
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    raiseIf(!file, "cannot write " + path);
    file << content;
    file.flush();
    raiseIf(!file.good(), "failed writing " + path);
}

/** Split args into positionals and --key value flags. */
std::optional<ParsedArgs>
parseArgs(const std::vector<std::string> &args, std::ostream &err)
{
    ParsedArgs parsed;
    for (size_t i = 0; i < args.size(); ++i) {
        if (startsWith(args[i], "--")) {
            if (i + 1 >= args.size()) {
                err << "error: flag " << args[i]
                    << " needs a value\n";
                return std::nullopt;
            }
            parsed.flags[args[i].substr(2)] = args[i + 1];
            ++i;
        } else {
            parsed.positional.push_back(args[i]);
        }
    }
    return parsed;
}

ModelType
modelTypeFromString(const std::string &name, std::ostream &err,
                    bool &ok)
{
    ok = true;
    if (name == "linear")
        return ModelType::Linear;
    if (name == "piecewise")
        return ModelType::PiecewiseLinear;
    if (name == "quadratic")
        return ModelType::Quadratic;
    if (name == "switching")
        return ModelType::Switching;
    err << "error: unknown model type '" << name
        << "' (linear|piecewise|quadratic|switching)\n";
    ok = false;
    return ModelType::Linear;
}

int
cmdHelp(std::ostream &out)
{
    out << "chaos — OS-counter power models (CHAOS, IISWC 2012)\n\n"
        << "subcommands:\n"
        << "  list-platforms                     supported machine "
           "classes\n"
        << "  list-counters [--category C]       the counter catalog\n"
        << "  probe <platform>                   idle/max power of "
           "one machine\n"
        << "  collect <platform> --out F.csv     run the workload "
           "campaign, save dataset\n"
        << "      [--machines N] [--runs N] [--seed S] [--scale F]\n"
        << "  select <data.csv>                  run Algorithm 1 "
           "feature selection\n"
        << "  train <data.csv> --out model.txt   fit a deployable "
           "model\n"
        << "      [--type T] [--features \"a;b\"] [--seed S]\n"
        << "  evaluate <data.csv>                cross-validated "
           "accuracy\n"
        << "      [--type T] [--folds K] [--seed S]\n"
        << "  predict <model.txt> <data.csv>     apply a saved model\n"
        << "  serve --replay <data.csv>          stream a recorded "
           "trace through the fleet server\n"
        << "      (--model M.txt | --fleet manifest.txt) [--speed X] "
           "[--platform P]\n"
        << "      [--shards N] [--queue-capacity N] "
           "[--snapshot-every N] [--snapshots-out F]\n"
        << "  serve --listen PORT                accept wire-protocol "
           "samples over TCP (0 = ephemeral)\n"
        << "      [--machines N] [--model M.txt | --fleet F] "
           "[--platform P] [--port-file F]\n"
        << "      [--ingest-max-samples N] [--ingest-idle-ms MS] "
           "[--credit-batch N] [--stats-out F]\n"
        << "      [--monitor 1 [--window N] [--warmup N] "
           "[--drift-lambda L] [--drift-delta D]]\n"
        << "      [--flight-dir DIR [--flight-window-ms MS] "
           "[--flight-rate-limit-ms MS]]\n"
        << "  loadgen --target host:port         drive an ingest "
           "server with concurrent connections\n"
        << "      [--connections N] [--samples N] [--machines N] "
           "[--rate R] [--jsonl 1]\n"
        << "      [--window N] [--workers N] [--metered-every N] "
           "[--report-json F]\n"
        << "      [--replay data.csv [--inject-stuck \"id;id\"] "
           "[--inject-at T] [--inject-stagger N]]\n"
        << "  top --target host:port             live dashboard over "
           "a serving `chaos serve --listen`\n"
        << "      [--json 1] [--interval-ms MS] [--count N] "
           "[--timeout-ms MS]\n"
        << "  monitor --replay <data.csv>        replay with online "
           "model-quality monitoring\n"
        << "      (--model M.txt | --fleet manifest.txt) "
           "[--platform P] [--speed X]\n"
        << "      [--window N] [--warmup N] [--drift-lambda L] "
           "[--drift-delta D]\n"
        << "      [--telemetry-out F.jsonl|tcp://h:p] [--telemetry-every N] "
           "[--dashboard-every N]\n"
        << "  autopilot --replay <data.csv>      replay with "
           "self-healing remediation\n"
        << "      (--model M.txt | --fleet manifest.txt) "
           "[--platform P] [--speed X]\n"
        << "      [--window N] [--warmup N] [--drift-lambda L] "
           "[--drift-delta D]\n"
        << "      [--substitute pooled|lastgood] [--retrain-type T] "
           "[--canary-samples N]\n"
        << "      [--cooldown N] [--max-retrains N] "
           "[--reference-window N] [--min-retrain-samples N]\n"
        << "      [--inject-stuck \"id;id\"] [--inject-at T] "
           "[--inject-stagger N]\n"
        << "      [--telemetry-out F.jsonl|tcp://h:p] [--telemetry-every N] "
           "[--dashboard-every N]\n"
        << "  fleetview                          hierarchical "
           "quality roll-up dashboard\n"
        << "      (--synthetic N | --telemetry F.jsonl | --replay "
           "data.csv (--model M | --fleet F))\n"
        << "      [--ticks N] [--seed S] [--worst N] [--path "
           "dc0/row1] [--rollup-out F.jsonl]\n"
        << "      [--group-size N] [--platform P] [--window N] "
           "[--warmup N]\n"
        << "      [--drift-lambda L] [--drift-delta D]\n"
        << "  report <data.csv>                  markdown dataset "
           "summary\n"
        << "\nnumeric flags take a plain non-negative number; a "
           "malformed one\n(\"abc\", \"-5\", \"12x\") exits 2 with an "
           "error naming the flag.\n"
        << "\nglobal flags (any subcommand):\n"
        << "  --log-level L      debug|info|warn|error|silent\n"
        << "  --trace-out F      write a Chrome trace-event JSON "
           "(chrome://tracing)\n"
        << "  --trace-summary F  write the human-readable phase-tree "
           "summary\n"
        << "  --metrics-out F    write the metrics registry snapshot "
           "as JSON\n";
    return 0;
}

int
cmdListPlatforms(std::ostream &out)
{
    TextTable table({"Platform", "Cores", "P-states", "Disks",
                     "Power range (W)"});
    for (MachineClass mc : extendedMachineClasses()) {
        const MachineSpec spec = machineSpecFor(mc);
        table.addRow({spec.name, std::to_string(spec.numCores),
                      std::to_string(spec.pStatesMhz.size()),
                      std::to_string(spec.numDisks),
                      formatDouble(spec.idlePowerW, 0) + "-" +
                          formatDouble(spec.maxPowerW, 0)});
    }
    out << table.render();
    return 0;
}

int
cmdListCounters(const ParsedArgs &args, std::ostream &out,
                std::ostream &err)
{
    const std::string wanted = args.flagOr("category", "");
    const auto &catalog = CounterCatalog::instance();
    size_t shown = 0;
    for (const auto &def : catalog.all()) {
        const std::string category =
            counterCategoryName(def.category);
        if (!wanted.empty() && toLower(category) != toLower(wanted))
            continue;
        out << category << "\t" << def.name << "\n";
        ++shown;
    }
    if (shown == 0) {
        err << "error: no counters in category '" << wanted << "'\n";
        return 2;
    }
    out << "(" << shown << " counters)\n";
    return 0;
}

int
cmdProbe(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() != 2) {
        err << "usage: chaos probe <platform>\n";
        return 2;
    }
    const MachineClass mc = machineClassFromName(args.positional[1]);
    const MachineSpec spec = machineSpecFor(mc);

    Machine machine(spec, 0, 12345);
    PowerMeter meter{Rng(54321)};
    EtwSession session(machine, meter, 99);

    RunningStats idle;
    for (int t = 0; t < 30; ++t) {
        const auto &record = session.tick(ActivityDemand{});
        if (t >= 10)
            idle.add(record.measuredPowerW);
    }
    ActivityDemand full;
    full.cpuCoreSeconds = static_cast<double>(spec.numCores);
    full.diskReadBytes = spec.numDisks * spec.diskBandwidthMBs * 1e6;
    full.netRxBytes = 125e6;
    full.netTxBytes = 125e6;
    full.memIntensity = 1.0;
    RunningStats busy;
    for (int t = 0; t < 30; ++t) {
        const auto &record = session.tick(full);
        if (t >= 10)
            busy.add(record.measuredPowerW);
    }
    out << spec.name << ": idle " << formatDouble(idle.mean(), 1)
        << " W, max " << formatDouble(busy.mean(), 1)
        << " W (spec " << formatDouble(spec.idlePowerW, 0) << "-"
        << formatDouble(spec.maxPowerW, 0) << " W)\n";
    return 0;
}

int
cmdCollect(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    if (args.positional.size() != 2 || !args.flags.count("out")) {
        err << "usage: chaos collect <platform> --out <data.csv>\n";
        return 2;
    }
    CampaignConfig config;
    config.numMachines = args.integer("machines", 5);
    config.runsPerWorkload = args.integer("runs", 5);
    config.seed = args.integer("seed", 2012);
    config.run.durationScale = args.number("scale", 1.0);

    const MachineClass mc = machineClassFromName(args.positional[1]);
    validateCampaign(config);
    out << "collecting " << machineClassName(mc) << " x"
        << config.numMachines << ", 4 workloads x "
        << config.runsPerWorkload << " runs...\n";
    const ClusterCampaign campaign = collectClusterData(mc, config);
    saveDataset(args.flags.at("out"), campaign.data);
    out << "wrote " << campaign.data.numRows() << " machine-seconds x "
        << campaign.data.numFeatures() << " counters to "
        << args.flags.at("out") << "\n";
    return 0;
}

int
cmdSelect(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() != 2) {
        err << "usage: chaos select <data.csv>\n";
        return 2;
    }
    const Dataset data = loadDataset(args.positional[1]);
    FeatureSelectionConfig config;
    Rng rng(args.integer("seed", 1));
    const FeatureSelectionResult selection =
        selectClusterFeatures(data, config, rng);

    out << "funnel: " << selection.catalogSize << " -> "
        << selection.afterConstantDrop << " -> "
        << selection.afterCorrelation << " -> "
        << selection.afterCoDependency << " -> "
        << selection.selected.size() << " (threshold "
        << selection.finalThreshold << ")\n";
    for (const auto &name : selection.selected)
        out << "  " << name << "\n";
    return 0;
}

/** Resolve the feature set for train/evaluate. */
FeatureSet
featureSetFor(const ParsedArgs &args, const Dataset &data,
              std::ostream &out)
{
    const std::string explicit_features =
        args.flagOr("features", "");
    if (!explicit_features.empty()) {
        FeatureSet set{"custom", {}};
        for (const auto &name : split(explicit_features, ';')) {
            const std::string trimmed = trim(name);
            if (!trimmed.empty())
                set.counters.push_back(trimmed);
        }
        return set;
    }
    out << "running Algorithm 1 feature selection...\n";
    FeatureSelectionConfig config;
    Rng rng(args.integer("seed", 1));
    return clusterFeatureSet(selectClusterFeatures(data, config, rng));
}

int
cmdTrain(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.positional.size() != 2 || !args.flags.count("out")) {
        err << "usage: chaos train <data.csv> --out <model.txt>\n";
        return 2;
    }
    bool ok = true;
    const ModelType type = modelTypeFromString(
        args.flagOr("type", "quadratic"), err, ok);
    if (!ok)
        return 2;

    const Dataset data = loadDataset(args.positional[1]);
    const FeatureSet features = featureSetFor(args, data, out);
    const MachinePowerModel model =
        MachinePowerModel::fit(data, features, type, MarsConfig());
    saveMachineModelFile(args.flags.at("out"), model);
    out << "trained " << modelTypeName(type) << " model on "
        << features.counters.size() << " counters ("
        << model.model().numParameters() << " parameters) -> "
        << args.flags.at("out") << "\n";
    return 0;
}

int
cmdEvaluate(const ParsedArgs &args, std::ostream &out,
            std::ostream &err)
{
    if (args.positional.size() != 2) {
        err << "usage: chaos evaluate <data.csv>\n";
        return 2;
    }
    bool ok = true;
    const ModelType type = modelTypeFromString(
        args.flagOr("type", "quadratic"), err, ok);
    if (!ok)
        return 2;

    EvaluationConfig config;
    config.folds = args.integer("folds", 5, 2);
    config.seed = args.integer("seed", 12345);
    const Dataset data = loadDataset(args.positional[1]);
    const FeatureSet features = featureSetFor(args, data, out);

    // DRE denominators from the observed per-machine power range.
    EnvelopeMap envelopes;
    std::map<int, std::pair<double, double>> ranges;
    for (size_t r = 0; r < data.numRows(); ++r) {
        auto &range = ranges
                          .try_emplace(data.machineIds()[r],
                                       1e300, -1e300)
                          .first->second;
        range.first = std::min(range.first, data.powerW()[r]);
        range.second = std::max(range.second, data.powerW()[r]);
    }
    for (const auto &[machine, range] : ranges)
        envelopes[machine] = {range.first, range.second};

    const EvaluationOutcome outcome =
        evaluateTechnique(data, features, type, envelopes, config);
    if (!outcome.valid) {
        err << "error: model/feature combination is undefined for "
               "this dataset\n";
        return 2;
    }
    out << modelTypeName(type) << " on "
        << features.counters.size() << " counters, "
        << outcome.foldsRun << " folds:\n"
        << "  avg machine DRE (observed range): "
        << formatPercent(outcome.avgDre, 1) << "\n"
        << "  avg rMSE: " << formatDouble(outcome.avgRmse, 2)
        << " W\n"
        << "  median relative error: "
        << formatPercent(outcome.medianRelErr, 2) << "\n"
        << "  R^2: " << formatDouble(outcome.r2, 3) << "\n";
    return 0;
}

int
cmdPredict(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    if (args.positional.size() != 3) {
        err << "usage: chaos predict <model.txt> <data.csv>\n";
        return 2;
    }
    const MachinePowerModel model =
        loadMachineModelFile(args.positional[1]);
    const Dataset data = loadDataset(args.positional[2]);

    std::vector<double> estimates;
    estimates.reserve(data.numRows());
    for (size_t r = 0; r < data.numRows(); ++r) {
        estimates.push_back(
            model.predictFromCatalogRow(data.features().row(r)));
    }
    const auto &metered = data.powerW();
    out << "predicted " << estimates.size() << " samples\n";
    out << "  mean estimate: "
        << formatDouble(mean(estimates), 2) << " W (metered "
        << formatDouble(mean(metered), 2) << " W)\n";
    out << "  rMSE vs meter: "
        << formatDouble(rootMeanSquaredError(estimates, metered), 2)
        << " W\n";
    out << "  median relative error: "
        << formatPercent(medianRelativeError(estimates, metered), 2)
        << "\n";
    return 0;
}

/**
 * Surface the serving path's silent loss at summary time: drop-oldest
 * keeps the fleet live under overload, but an operator reading only
 * the final table would never know which machines paid for it.
 */
void
warnDroppedMachines(const serve::FleetSnapshot &snapshot,
                    std::ostream &err)
{
    for (const serve::MachineSnapshot &machine : snapshot.machines) {
        if (machine.dropped == 0)
            continue;
        err << "warning: machine '" << machine.id << "' dropped "
            << machine.dropped
            << " queued samples under backpressure (drop-oldest); "
               "raise --queue-capacity or --shards, or feed it over "
               "the network ingest path for explicit NACKs\n";
    }
}

/**
 * Fit the same cheap two-counter linear model the serving tests use
 * (~ baseW + 0.1*u0 + 0.08*u1 W over the processor-time counters), so
 * listen mode can register machines without shipping a dataset.
 */
MachinePowerModel
syntheticServeModel(uint64_t seed, double baseW)
{
    Rng rng(seed);
    const size_t n = 200;
    Matrix x(n, 2);
    std::vector<double> y(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 100.0);
        x(i, 1) = rng.uniform(0.0, 100.0);
        y[i] = baseW + 0.1 * x(i, 0) + 0.08 * x(i, 1) +
               rng.normal(0.0, 0.05);
    }
    auto model = std::make_shared<LinearModel>();
    model->fit(x, y);
    return MachinePowerModel::fromParts(
        FeatureSet{"serve-listen",
                   {"Processor(0)\\% Processor Time",
                    "Processor(1)\\% Processor Time"}},
        std::move(model));
}

/** "machine0" .. "machine<n-1>": the ids listen mode registers. */
std::vector<std::string>
numberedMachineIds(std::size_t n)
{
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back("machine" + std::to_string(i));
    return ids;
}

/** True when exactly one of --model and --fleet names the models. */
bool
oneModelSource(const ParsedArgs &args)
{
    return args.flagOr("model", "").empty() !=
           args.flagOr("fleet", "").empty();
}

/** --shards / --queue-capacity / --snapshot-every, for `serve`. */
serve::FleetServerConfig
serverConfig(const ParsedArgs &args)
{
    serve::FleetServerConfig config;
    config.numShards = args.integer("shards", 4);
    config.queueCapacity = args.integer("queue-capacity", 8192);
    config.snapshotEverySamples = args.integer("snapshot-every", 0);
    return config;
}

/** --window / --warmup / --drift-lambda / --drift-delta. */
monitor::QualityMonitorConfig
qualityConfig(const ParsedArgs &args)
{
    monitor::QualityMonitorConfig config;
    config.windowSamples = args.integer("window", 60);
    config.warmupSamples = args.integer("warmup", 600);
    config.driftLambda = args.number("drift-lambda", 60.0);
    config.driftDelta = args.number("drift-delta", 0.5);
    return config;
}

/**
 * Register the serving fleet on @p server: every --fleet manifest
 * entry with its own model, else the --model file (the synthetic
 * model when neither is given) deployed to each of @p ids. --platform
 * tunes every machine's online estimator.
 * @return The first model's feature set (the inputs of autopilot's
 *         pooled quarantine substitute).
 */
FeatureSet
addFleetMachines(serve::FleetServer &server, const ParsedArgs &args,
                 const std::vector<std::string> &ids)
{
    OnlineEstimatorConfig estimator;
    const std::string platform = args.flagOr("platform", "");
    if (!platform.empty()) {
        estimator = OnlineEstimatorConfig::forSpec(
            machineSpecFor(machineClassFromName(platform)));
    }
    const std::string fleetPath = args.flagOr("fleet", "");
    if (!fleetPath.empty()) {
        std::vector<serve::FleetMachine> fleet =
            serve::loadFleetModels(fleetPath);
        raiseIf(fleet.empty(), "empty fleet manifest " + fleetPath);
        FeatureSet features = fleet.front().model.featureSet();
        for (serve::FleetMachine &machine : fleet) {
            server.addMachine(machine.id, std::move(machine.model),
                              estimator);
        }
        return features;
    }
    const std::string modelPath = args.flagOr("model", "");
    const MachinePowerModel model =
        modelPath.empty() ? syntheticServeModel(7, 25.0)
                          : loadMachineModelFile(modelPath);
    for (const std::string &id : ids)
        server.addMachine(id, model, estimator);
    return model.featureSet();
}

/**
 * @p data with the --inject-stuck machines' ("machine<N>;...")
 * counter vectors passed through a stuck-counter DriftStorm from
 * --inject-at on, staggered by --inject-stagger (unchanged when the
 * flag is absent). Metered power stays true — that divergence is what
 * the monitor detects. Rows keep their recorded order, with a
 * per-machine tick counter driving the storm.
 */
Dataset
injectedTrace(const ParsedArgs &args, Dataset data)
{
    std::vector<std::string> targets;
    for (const std::string &part :
         split(args.flagOr("inject-stuck", ""), ';')) {
        const std::string id = trim(part);
        if (!id.empty())
            targets.push_back(id);
    }
    if (targets.empty())
        return data;

    DriftStormConfig stormConfig;
    stormConfig.machines = targets.size();
    stormConfig.onsetTick = args.integer("inject-at", 0);
    stormConfig.staggerTicks = args.integer("inject-stagger", 0);
    stormConfig.seed = args.integer("seed", 2012);
    DriftStorm storm(stormConfig);

    Dataset faulted(data.featureNames());
    std::map<int, std::size_t> tickOf;
    for (size_t r = 0; r < data.numRows(); ++r) {
        const int machine = data.machineIds()[r];
        const std::size_t tick = tickOf[machine]++;
        std::vector<double> row = data.features().row(r);
        const auto target =
            std::find(targets.begin(), targets.end(),
                      "machine" + std::to_string(machine));
        if (target != targets.end()) {
            row = storm.apply(
                static_cast<std::size_t>(target - targets.begin()),
                tick, std::move(row));
        }
        faulted.addRow(
            row, data.powerW()[r], data.runIds()[r], machine,
            data.workloadNames()[data.workloadIds()[r]]);
    }
    return faulted;
}

/**
 * The monitored lockstep replay that `monitor`, `autopilot` and
 * `fleetview --replay` share: every machine of the trace registered
 * under one FleetMonitor, and a synchronous replay in which each
 * tick's samples drain on the calling thread before the autopilot
 * (when one is given) ticks, telemetry is written and the command's
 * own per-tick output runs. Dashboard lines and telemetry records are
 * therefore in lockstep with the trace, and deterministic for a fixed
 * trace.
 */
struct LockstepReplay
{
    serve::TraceReplayer replayer;
    serve::FleetServer server;
    FeatureSet features;
    monitor::FleetMonitor fleetMonitor;
    std::optional<monitor::TelemetryExporter> telemetry;
    std::size_t telemetryEvery = 10;

    LockstepReplay(const ParsedArgs &args, const Dataset &trace)
        : replayer(trace),
          features(addFleetMachines(server, args, replayer.machineIds())),
          fleetMonitor(qualityConfig(args))
    {
        fleetMonitor.attach(server);
    }

    /**
     * Stream fleet/quality/metrics records to --telemetry-out (a
     * JSONL path, or "tcp://host:port" for a live collector) every
     * --telemetry-every ticks and on the last tick.
     */
    void openTelemetry(const ParsedArgs &args)
    {
        telemetryEvery = args.integer("telemetry-every", 10, 1);
        const std::string target = args.flagOr("telemetry-out", "");
        if (target.empty())
            return;
        if (net::isSocketTarget(target))
            telemetry.emplace(net::connectLineSink(target), target);
        else
            telemetry.emplace(target);
    }

    /**
     * Replay the trace at --speed; @p show runs every @p every ticks
     * (never when 0) and on the last tick.
     */
    serve::ReplayStats
    run(const ParsedArgs &args, std::size_t every,
        const std::function<void(std::size_t tick)> &show,
        autopilot::AutopilotController *pilot = nullptr)
    {
        serve::ReplayConfig config;
        config.speed = args.number("speed", 0.0);
        config.onTick = [&](std::size_t tick) {
            while (server.processed() + server.dropped() <
                   server.submitted())
                server.drainOnce();
            if (pilot != nullptr)
                pilot->tick();
            const bool lastTick = tick + 1 == replayer.numTicks();
            if (telemetry && (tick % telemetryEvery == 0 || lastTick)) {
                const monitor::QualitySnapshot quality =
                    fleetMonitor.publishMetrics();
                telemetry->writeFleet(server.snapshot(), tick);
                telemetry->writeQuality(quality, tick);
                telemetry->writeMetrics(tick);
            }
            if (every != 0 && (tick % every == 0 || lastTick))
                show(tick);
        };
        return replayer.replayInto(server, config);
    }

    /** Flush the telemetry stream and say where it went. */
    void closeTelemetry(std::ostream &out)
    {
        if (!telemetry)
            return;
        telemetry->flush();
        out << "wrote " << telemetry->records()
            << " telemetry records to " << telemetry->path() << "\n";
    }
};

/**
 * `chaos serve --listen`: run the fleet server as a real network
 * server — a ChaosIngestServer accepting wire-protocol connections
 * (binary or JSONL) and feeding the shard queues, until a sample
 * budget or an idle window ends the run. `chaos loadgen` is the
 * matching client.
 */
int
cmdServeListen(const ParsedArgs &args, std::ostream &out,
               std::ostream &err)
{
    const serve::FleetServerConfig config = serverConfig(args);
    serve::FleetServer server(config);
    addFleetMachines(server, args,
                     numberedMachineIds(args.integer("machines", 8)));

    net::IngestServerConfig ingestConfig;
    ingestConfig.port =
        static_cast<uint16_t>(args.integer("listen", 0, 0, 65535));
    ingestConfig.creditBatch = args.integer("credit-batch", 0);
    // Run until the sample budget is met or ingest goes idle (both
    // optional; with neither, serve until the process is killed).
    const uint64_t maxSamples = args.integer("ingest-max-samples", 0);
    const uint64_t idleMs = args.integer("ingest-idle-ms", 0);
    net::ChaosIngestServer ingest(server, ingestConfig);

    // Optional online quality monitoring: drift verdicts over the
    // metered references the wire samples carry — the trigger the
    // flight recorder below freezes on.
    std::optional<monitor::FleetMonitor> fleetMonitor;
    if (args.flagSet("monitor")) {
        fleetMonitor.emplace(qualityConfig(args));
        fleetMonitor->attach(server);
    }

    // Optional flight recorder: keep rings of recent spans / events /
    // metric deltas and dump a diagnostic bundle when an anomaly
    // (ModelDrift, Backpressure, ConnectionDrop, Rollback) fires.
    const std::string flightDir = args.flagOr("flight-dir", "");
    if (!flightDir.empty()) {
        obs::FlightConfig flightConfig;
        flightConfig.outDir = flightDir;
        flightConfig.windowMs = args.integer("flight-window-ms", 10000);
        flightConfig.rateLimitMs =
            args.integer("flight-rate-limit-ms", 30000);
        auto &flight = obs::FlightRecorder::instance();
        flight.configure(flightConfig);
        flight.setEnabled(true);
    }

    server.start();
    ingest.start();
    out << "listening on " << ingest.config().bindAddress << ":"
        << ingest.port() << " (" << server.numMachines()
        << " machines, " << config.numShards << " shards)"
        << std::endl;

    // Scripts poll this file instead of parsing stdout (the port is
    // ephemeral when --listen 0).
    const std::string portFile = args.flagOr("port-file", "");
    if (!portFile.empty())
        writeTextFile(portFile, std::to_string(ingest.port()) + "\n");

    auto lastChange = std::chrono::steady_clock::now();
    uint64_t lastSeen = 0;
    while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const uint64_t processed = server.processed();
        const auto now = std::chrono::steady_clock::now();
        if (processed != lastSeen) {
            lastSeen = processed;
            lastChange = now;
        }
        if (maxSamples > 0 && processed >= maxSamples)
            break;
        if (idleMs > 0 &&
            now - lastChange >= std::chrono::milliseconds(idleMs))
            break;
    }
    ingest.stop();
    server.stop();

    const net::IngestStats stats = ingest.stats();
    out << "ingest: " << stats.connectionsAccepted << " connections ("
        << stats.connectionsDropped << " dropped), "
        << stats.samplesAccepted << " samples accepted, "
        << stats.rejectedBackpressure << " rejected (backpressure), "
        << stats.rejectedUnknown << " rejected (unknown machine), "
        << stats.badFrames << " bad frames\n";

    const serve::FleetSnapshot snapshot = server.snapshot();
    out << "cluster power: " << formatDouble(snapshot.clusterW, 1)
        << " W over " << snapshot.samplesProcessed
        << " processed samples\n";
    warnDroppedMachines(snapshot, err);

    if (fleetMonitor) {
        out << "monitor: " << fleetMonitor->driftEvents()
            << " drift events\n";
    }
    if (!flightDir.empty()) {
        auto &flight = obs::FlightRecorder::instance();
        flight.setEnabled(false);
        out << "flight: " << flight.bundlesWritten()
            << " bundles written";
        if (!flight.lastBundlePath().empty())
            out << ", last " << flight.lastBundlePath();
        out << "\n";
    }

    const std::string statsOut = args.flagOr("stats-out", "");
    if (!statsOut.empty()) {
        writeTextFile(statsOut, "{\"ingest\": " + stats.toJson() +
                                    ", \"fleet\": " +
                                    snapshot.toJson() + "}\n");
        out << "wrote ingest stats to " << statsOut << "\n";
    }
    return 0;
}

/**
 * `chaos loadgen --replay`: send a recorded trace (optionally fault-
 * injected with stuck counters, same flags as `chaos autopilot`)
 * through the wire protocol to a live ingest server, one connection,
 * metered references attached. This is how tier-1 provokes a real
 * ModelDrift — and therefore a flight-recorder bundle — on a
 * network-fed server from a clean recording.
 */
int
loadgenReplay(const ParsedArgs &args, const std::string &target,
              std::ostream &out)
{
    const Dataset data =
        injectedTrace(args, loadDataset(args.flagOr("replay", "")));

    net::IngestClientConfig config;
    const auto [host, port] = net::parseHostPort(target);
    config.host = host;
    config.port = port;
    config.window = args.integer("window", 1024);
    config.jsonl = args.flagSet("jsonl");
    // Metered references ride every Nth sample (default: every one —
    // the monitor's drift detector needs them).
    const size_t meteredEvery = args.integer("metered-every", 1);
    net::IngestClient client(config);
    client.connect();

    std::map<int, std::uint64_t> tickOf;
    for (size_t r = 0; r < data.numRows(); ++r) {
        const int machine = data.machineIds()[r];
        const std::uint64_t tick = tickOf[machine]++;
        const std::vector<double> row = data.features().row(r);
        const double metered =
            meteredEvery != 0 && tick % meteredEvery == 0
                ? data.powerW()[r]
                : std::numeric_limits<double>::quiet_NaN();
        client.send(tick, "machine" + std::to_string(machine),
                    row.data(), row.size(), metered);
    }
    const bool drained = client.drain();
    client.close();

    out << "replayed " << client.sent() << " samples over the wire: "
        << client.accepted() << " accepted, " << client.rejected()
        << " rejected"
        << (drained ? "" : " (server closed before full drain)")
        << "\n";
    return drained ? 0 : 1;
}

/**
 * Drive an ingest server with paced concurrent connections — the
 * client half of `chaos serve --listen`, for smoke tests and load
 * experiments. Machine ids default to the machine0..machineN-1 names
 * listen mode registers. --replay switches to trace mode: send a
 * recorded (optionally fault-injected) dataset instead of synthetic
 * rows.
 */
int
cmdLoadgen(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    std::string target = args.flagOr("target", "");
    if (target.empty()) {
        err << "usage: chaos loadgen --target host:port "
               "[--connections N] [--samples N]\n"
               "    [--machines N | --machine-ids \"a;b\"] [--rate "
               "R/conn/sec] [--row-size N]\n"
               "    [--window N] [--workers N] [--jsonl 1] "
               "[--metered-every N] [--seed S]\n"
               "    [--report-json F]\n"
               "    [--replay data.csv [--inject-stuck \"id;id\"] "
               "[--inject-at T] [--inject-stagger N]]\n";
        return 2;
    }
    if (net::isSocketTarget(target))
        target = target.substr(6);
    if (!args.flagOr("replay", "").empty())
        return loadgenReplay(args, target, out);

    net::LoadGenConfig config;
    const auto [host, port] = net::parseHostPort(target);
    config.host = host;
    config.port = port;
    config.connections = args.integer("connections", 8);
    config.workers = args.integer("workers", 0);
    config.samplesPerConnection = args.integer("samples", 1000);
    config.ratePerConnection = args.number("rate", 0.0);
    config.rowSize =
        args.integer("row-size", CounterCatalog::instance().size());
    config.window = args.integer("window", 1024);
    config.jsonl = args.flagSet("jsonl");
    config.meteredEvery = args.integer("metered-every", 0);
    config.seed = args.integer("seed", 42);

    const std::string idList = args.flagOr("machine-ids", "");
    if (!idList.empty()) {
        for (const std::string &id : split(idList, ';'))
            if (!id.empty())
                config.machineIds.push_back(id);
    } else {
        config.machineIds =
            numberedMachineIds(args.integer("machines", 8));
    }

    net::LoadGenerator generator(config);
    const net::LoadGenReport report = generator.run();

    out << "loadgen: " << report.sent << " sent = "
        << report.accepted << " accepted + " << report.rejected
        << " rejected over " << config.connections
        << " connections in "
        << formatDouble(report.elapsedSec, 2) << " s ("
        << formatDouble(report.sentPerSec, 0) << " samples/sec)\n";
    out << "  ack latency: p50 "
        << formatDouble(report.p50LatencyMs, 2) << " ms, p99 "
        << formatDouble(report.p99LatencyMs, 2) << " ms, max "
        << formatDouble(report.maxLatencyMs, 2) << " ms\n";
    if (report.backpressureNacks > 0 || report.unknownNacks > 0) {
        out << "  nacks: " << report.backpressureNacks
            << " backpressure, " << report.unknownNacks
            << " unknown machine\n";
    }
    if (report.connectionsFailed > 0) {
        err << "error: " << report.connectionsFailed
            << " connections failed: " << report.firstError << "\n";
    }

    const std::string reportJson = args.flagOr("report-json", "");
    if (!reportJson.empty()) {
        writeTextFile(reportJson, report.toJson() + "\n");
        out << "wrote report to " << reportJson << "\n";
    }
    return report.connectionsFailed == 0 ? 0 : 1;
}

/** @return @p root[section][key] as a number (0 when absent). */
double
topNumber(const obs::JsonValue &root, const char *section,
          const char *key)
{
    const obs::JsonValue *sec = root.find(section);
    if (sec == nullptr || !sec->isObject())
        return 0.0;
    const obs::JsonValue *value = sec->find(key);
    return value != nullptr && value->isNumber() ? value->asNumber()
                                                 : 0.0;
}

/** Render one parsed introspection snapshot as a text dashboard. */
void
renderTop(const obs::JsonValue &snap, const std::string &target,
          std::ostream &out)
{
    out << "chaos top — " << target << " (ts "
        << static_cast<std::uint64_t>(
               topNumber(snap, "fleet", "ts_ms"))
        << " ms)\n\n";

    out << "fleet:  "
        << formatDouble(topNumber(snap, "fleet", "cluster_w"), 1)
        << " W cluster, "
        << static_cast<std::uint64_t>(
               topNumber(snap, "fleet", "processed"))
        << " processed, "
        << static_cast<std::uint64_t>(
               topNumber(snap, "fleet", "dropped"))
        << " dropped, drifting "
        << static_cast<std::uint64_t>(
               topNumber(snap, "fleet", "drifting"))
        << ", quarantined "
        << static_cast<std::uint64_t>(
               topNumber(snap, "fleet", "quarantined"))
        << "\n";
    out << "ingest: "
        << static_cast<std::uint64_t>(
               topNumber(snap, "ingest", "connections_open"))
        << " connections open, "
        << static_cast<std::uint64_t>(
               topNumber(snap, "ingest", "samples_accepted"))
        << " accepted, "
        << static_cast<std::uint64_t>(
               topNumber(snap, "ingest", "rejected_backpressure"))
        << " backpressured, "
        << static_cast<std::uint64_t>(
               topNumber(snap, "ingest", "bad_frames"))
        << " bad frames\n";
    out << "flight: "
        << static_cast<std::uint64_t>(
               topNumber(snap, "flight", "bundles_written"))
        << " bundles, "
        << static_cast<std::uint64_t>(
               topNumber(snap, "flight", "triggers_seen"))
        << " triggers\n\n";

    const obs::JsonValue *stages = snap.find("stage_latency");
    TextTable table({"Stage", "p50 (us)", "p99 (us)", "Samples"});
    if (stages != nullptr && stages->isObject()) {
        for (const auto &[name, stage] : stages->members()) {
            if (!stage.isObject())
                continue;
            const obs::JsonValue *p50 = stage.find("p50");
            const obs::JsonValue *p99 = stage.find("p99");
            const obs::JsonValue *count = stage.find("count");
            table.addRow(
                {name,
                 formatDouble(
                     p50 != nullptr ? p50->asNumber() : 0.0, 2),
                 formatDouble(
                     p99 != nullptr ? p99->asNumber() : 0.0, 2),
                 std::to_string(static_cast<std::uint64_t>(
                     count != nullptr ? count->asNumber() : 0.0))});
        }
    }
    out << table.render();
}

/**
 * `chaos top`: live introspection of a running `chaos serve
 * --listen` — poll the server's Introspect frame and render fleet
 * power, ingest accounting, per-stage latency percentiles, and the
 * flight-recorder state. --json 1 prints the raw snapshot JSON once
 * (the scriptable mode tier-1 validates); the default refreshes a
 * dashboard every --interval-ms until --count polls were shown.
 */
int
cmdTop(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::string target = args.flagOr("target", "");
    if (target.empty() && args.positional.size() > 1)
        target = args.positional[1];
    if (target.empty()) {
        err << "usage: chaos top --target host:port [--json 1]\n"
               "    [--interval-ms MS] [--count N] [--timeout-ms MS]\n";
        return 2;
    }
    if (net::isSocketTarget(target))
        target = target.substr(6);
    const auto [host, port] = net::parseHostPort(target);

    const bool jsonMode = args.flagSet("json");
    const int timeoutMs =
        static_cast<int>(args.integer("timeout-ms", 5000, 0, INT_MAX));
    const int intervalMs =
        static_cast<int>(args.integer("interval-ms", 1000, 0, INT_MAX));
    // --json is one-shot unless --count says otherwise; the
    // dashboard refreshes until interrupted by default.
    const std::uint64_t count = args.integer("count", jsonMode ? 1 : 0);

    for (std::uint64_t poll = 0; count == 0 || poll < count; ++poll) {
        if (poll > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
        }
        const std::string json =
            net::fetchSnapshot(host, port, poll + 1, timeoutMs);
        if (jsonMode) {
            out << json << "\n";
            continue;
        }
        obs::JsonValue snap;
        raiseIf(!obs::jsonParse(json, snap),
                "top: server sent malformed snapshot JSON");
        if (poll > 0)
            out << "\x1b[2J\x1b[H"; // Clear + home between refreshes.
        renderTop(snap, target, out);
        out.flush();
    }
    return 0;
}

/**
 * Replay a recorded counter trace through the streaming fleet server
 * (paper Eq. 5 as a service): every machine in the trace gets an
 * online estimator, samples are enqueued tick by tick at the chosen
 * speed, and the server drains them through the thread pool while
 * emitting periodic fleet-power snapshots.
 */
int
cmdServe(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    if (args.flags.count("listen") != 0)
        return cmdServeListen(args, out, err);
    const std::string replayPath = args.flagOr("replay", "");
    if (replayPath.empty() || !oneModelSource(args)) {
        err << "usage: chaos serve --replay <data.csv> "
               "(--model <model.txt> | --fleet <manifest.txt>)\n"
               "    [--speed X] [--platform P] [--shards N] "
               "[--queue-capacity N]\n"
               "    [--snapshot-every N] [--snapshots-out F]\n";
        return 2;
    }

    const serve::TraceReplayer replayer(loadDataset(replayPath));
    serve::FleetServer server(serverConfig(args));
    addFleetMachines(server, args, replayer.machineIds());

    serve::ReplayConfig replayConfig;
    replayConfig.speed = args.number("speed", 0.0);

    server.start();
    const serve::ReplayStats stats =
        replayer.replayInto(server, replayConfig);
    server.stop();

    const serve::FleetSnapshot final_snapshot = server.snapshot();
    out << "replayed " << stats.ticks << " ticks x "
        << server.numMachines() << " machines: " << stats.submitted
        << " samples submitted, " << server.processed()
        << " processed, " << server.dropped() << " dropped\n";
    out << "cluster power: "
        << formatDouble(final_snapshot.clusterW, 1) << " W (healthy "
        << final_snapshot.healthy << ", degraded "
        << final_snapshot.degraded << ", stale "
        << final_snapshot.stale << ", lost " << final_snapshot.lost
        << ")\n";
    TextTable table({"Machine", "Watts", "Health", "Samples"});
    for (const serve::MachineSnapshot &machine :
         final_snapshot.machines) {
        table.addRow({machine.id, formatDouble(machine.watts, 1),
                      machineHealthName(machine.health),
                      std::to_string(machine.samples)});
    }
    out << table.render();
    warnDroppedMachines(final_snapshot, err);

    const std::string snapshotsOut = args.flagOr("snapshots-out", "");
    if (!snapshotsOut.empty()) {
        std::string json = "[\n";
        for (const serve::FleetSnapshot &snap : server.snapshots())
            json += "  " + snap.toJson() + ",\n";
        json += "  " + final_snapshot.toJson() + "\n]\n";
        writeTextFile(snapshotsOut, json);
        out << "wrote " << server.snapshots().size() + 1
            << " snapshots to " << snapshotsOut << "\n";
    }
    return 0;
}

/**
 * Replay a recorded trace through a monitored fleet (LockstepReplay):
 * every evaluated sample updates the per-machine rolling model-quality
 * statistics (windowed rMSE, rolling DRE, bias) and the Page-Hinkley
 * drift detector, a periodic text dashboard shows the fleet
 * converging (or drifting), and --telemetry-out streams
 * fleet/quality/metrics records as JSONL for downstream collectors.
 */
int
cmdMonitor(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    const std::string replayPath = args.flagOr("replay", "");
    if (replayPath.empty() || !oneModelSource(args)) {
        err << "usage: chaos monitor --replay <data.csv> "
               "(--model <model.txt> | --fleet <manifest.txt>)\n"
               "    [--platform P] [--speed X] [--window N] "
               "[--warmup N]\n"
               "    [--drift-lambda L] [--drift-delta D]\n"
               "    [--telemetry-out F.jsonl|tcp://h:p] [--telemetry-every N] "
               "[--dashboard-every N]\n";
        return 2;
    }

    LockstepReplay replay(args, loadDataset(replayPath));
    monitor::FleetMonitor &fleetMonitor = replay.fleetMonitor;
    const std::size_t dashboardEvery = args.integer("dashboard-every", 0);
    replay.openTelemetry(args);
    const serve::ReplayStats stats =
        replay.run(args, dashboardEvery, [&](std::size_t tick) {
            const monitor::QualitySnapshot quality =
                fleetMonitor.snapshot();
            double worstDre = 0.0;
            for (const auto &machine : quality.machines) {
                if (std::isfinite(machine.rollingDre))
                    worstDre = std::max(worstDre, machine.rollingDre);
            }
            out << "tick " << tick << ": cluster "
                << formatDouble(replay.server.snapshot().clusterW, 1)
                << " W, worst rolling DRE "
                << formatPercent(worstDre, 1) << ", drifting "
                << quality.driftingCount() << "/"
                << quality.machines.size() << "\n";
        });

    const monitor::QualitySnapshot quality =
        fleetMonitor.publishMetrics();
    out << "monitored " << stats.ticks << " ticks x "
        << fleetMonitor.numMachines() << " machines: "
        << stats.submitted << " samples, " << replay.server.processed()
        << " processed, " << replay.server.dropped() << " dropped\n";
    TextTable table({"Machine", "Quality", "rMSE (W)", "DRE", "Bias (W)",
                     "Drift stat"});
    for (const monitor::MachineQualityReport &machine :
         quality.machines) {
        table.addRow(
            {machine.id, modelQualityName(machine.quality),
             formatDouble(machine.windowRmseW, 2),
             std::isfinite(machine.rollingDre)
                 ? formatPercent(machine.rollingDre, 1)
                 : "n/a",
             formatDouble(machine.biasW, 2),
             formatDouble(machine.driftStatistic, 1)});
    }
    out << table.render();
    out << "drift events: " << fleetMonitor.driftEvents() << "\n";
    replay.closeTelemetry(out);
    return 0;
}

/** "12.3%" for finite ratios, "n/a" otherwise (empty sketches). */
std::string
formatRatioCell(double ratio)
{
    return std::isfinite(ratio) ? formatPercent(ratio, 1) : "n/a";
}

/** "3.21" for finite watts, "n/a" otherwise. */
std::string
formatWattsCell(double watts, int decimals)
{
    return std::isfinite(watts) ? formatDouble(watts, decimals)
                                : "n/a";
}

/** Render one roll-up node: children, platforms, worst machines. */
void
renderFleetview(const rollup::NodeSummary &node, std::ostream &out)
{
    const rollup::RollupStats &s = node.stats;
    out << "fleetview "
        << (node.path.empty() ? std::string("(root)") : node.path)
        << ": " << s.machines << " machines (" << s.metered
        << " metered), " << formatDouble(s.watts, 1) << " W, drifting "
        << s.qualityDrifting << " (" << formatPercent(s.driftRate(), 1)
        << " of metered), quarantined " << s.quarantined << "\n";

    if (!node.children.empty()) {
        TextTable groups({"Group", "Machines", "Metered", "Watts",
                          "Healthy", "Drifting", "Drift rate",
                          "DRE p50", "DRE p99", "rMSE p99 (W)"});
        for (const rollup::NodeSummary &child : node.children) {
            const rollup::RollupStats &c = child.stats;
            groups.addRow(
                {child.name, std::to_string(c.machines),
                 std::to_string(c.metered), formatDouble(c.watts, 1),
                 std::to_string(c.healthy),
                 std::to_string(c.qualityDrifting),
                 formatRatioCell(c.driftRate()),
                 formatRatioCell(c.dre.quantile(0.5)),
                 formatRatioCell(c.dre.quantile(0.99)),
                 formatWattsCell(c.rmseW.quantile(0.99), 2)});
        }
        out << groups.render();
    }

    if (!s.platforms.empty()) {
        TextTable platforms({"Platform", "Machines", "Metered",
                             "Drifting", "Drift rate", "Watts"});
        for (const auto &[name, p] : s.platforms) {
            platforms.addRow({name, std::to_string(p.machines),
                              std::to_string(p.metered),
                              std::to_string(p.drifting),
                              formatRatioCell(p.driftRate()),
                              formatDouble(p.watts, 1)});
        }
        out << platforms.render();
    }

    if (!s.worst.empty()) {
        TextTable worst({"Worst machine", "Group", "DRE", "rMSE (W)",
                         "Drifted"});
        for (const rollup::MachineRank &r : s.worst) {
            worst.addRow({r.id, r.path,
                          formatRatioCell(r.rollingDre),
                          formatWattsCell(r.windowRmseW, 2),
                          r.drifted ? "yes" : "no"});
        }
        out << worst.render();
    }
}

/** Pre-order JSONL dump of a summary tree (one node per line). */
void
appendRollupLines(const rollup::NodeSummary &node, std::string &out)
{
    out += node.toJson();
    out += "\n";
    for (const rollup::NodeSummary &child : node.children)
        appendRollupLines(child, out);
}

/**
 * Place sorted machine ids into synthetic "fleet<K>" groups of
 * @p groupSize. Telemetry and replay streams carry no topology, so
 * the fleetview groups them deterministically by id order; real
 * deployments would feed real placement metadata instead.
 */
template <typename Feed>
void
placeSequentially(Feed &feed, const std::vector<std::string> &ids,
                  std::size_t groupSize, const std::string &platform)
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        feed.place(ids[i],
                   "fleet" + std::to_string(i / groupSize),
                   platform);
    }
}

/**
 * The datacenter-scale observability dashboard: aggregate per-machine
 * quality into the hierarchical roll-up tree and render any level of
 * it. Three feeds — a synthetic topology (scale demos), an offline
 * telemetry JSONL replay (post-hoc analysis of a monitor/autopilot
 * run), and a live lockstep trace replay through a real FleetServer +
 * FleetMonitor — all land in the same RollupTree, so the rendering
 * and the JSONL roll-up export are identical across them.
 */
int
cmdFleetview(const ParsedArgs &args, std::ostream &out,
             std::ostream &err)
{
    const std::string syntheticCount = args.flagOr("synthetic", "");
    const std::string telemetryPath = args.flagOr("telemetry", "");
    const std::string replayPath = args.flagOr("replay", "");
    const int modes = (syntheticCount.empty() ? 0 : 1) +
                      (telemetryPath.empty() ? 0 : 1) +
                      (replayPath.empty() ? 0 : 1);
    if (modes != 1) {
        err << "usage: chaos fleetview (--synthetic N | --telemetry "
               "F.jsonl | --replay data.csv (--model M | --fleet F))\n"
               "    [--ticks N] [--seed S] [--worst N] [--path "
               "dc0/row1] [--rollup-out F.jsonl]\n"
               "    [--group-size N] [--platform P] [--window N] "
               "[--warmup N]\n"
               "    [--drift-lambda L] [--drift-delta D]\n";
        return 2;
    }

    rollup::RollupConfig rollupConfig;
    rollupConfig.worstN = args.integer("worst", 5);
    rollup::RollupTree tree(rollupConfig);

    const std::size_t groupSize = args.integer("group-size", 8, 1);
    const std::string platform = args.flagOr("platform", "");

    if (!syntheticCount.empty()) {
        FleetTopologyConfig topoConfig;
        topoConfig.machines = args.integer("synthetic", 0);
        topoConfig.seed = args.integer("seed", 42);
        const std::uint64_t ticks = args.integer("ticks", 30);
        const FleetTopology topology(topoConfig);
        rollup::SyntheticRollupFeed feed(tree, topology);
        for (std::uint64_t t = 0; t < ticks; ++t)
            feed.tick(t);
        out << "synthetic fleet: " << topology.size()
            << " machines, " << ticks << " ticks, ground-truth "
            << "drifting " << topology.driftTruthTotal() << "\n";
    } else if (!telemetryPath.empty()) {
        // Pass 1: discover machine ids so grouping covers everyone.
        std::vector<std::string> ids;
        {
            std::set<std::string> seen;
            std::ifstream in(telemetryPath);
            raiseIf(!in.is_open(),
                    "cannot open telemetry: " + telemetryPath);
            std::string line;
            while (std::getline(in, line)) {
                if (line.empty())
                    continue;
                obs::JsonValue record;
                if (!obs::jsonParse(line, record))
                    continue; // Replay will report the bad line.
                const obs::JsonValue *payload = record.find("fleet");
                if (!payload)
                    payload = record.find("quality");
                if (!payload || !payload->isObject())
                    continue;
                const obs::JsonValue *machines =
                    payload->find("machines");
                if (!machines || !machines->isArray())
                    continue;
                for (const obs::JsonValue &m : machines->items()) {
                    const std::string id = m.stringOr("id", "");
                    if (!id.empty())
                        seen.insert(id);
                }
            }
            ids.assign(seen.begin(), seen.end());
        }
        rollup::JsonlRollupFeed feed(tree);
        placeSequentially(feed, ids, groupSize,
                          platform.empty() ? "unknown" : platform);
        const rollup::JsonlReplayStats stats =
            feed.replayFile(telemetryPath);
        out << "telemetry replay: " << stats.lines << " lines, "
            << stats.fleetRecords << " fleet + "
            << stats.qualityRecords << " quality records ("
            << stats.skipped << " skipped), last tick "
            << stats.lastTick << "\n";
    } else {
        if (!oneModelSource(args)) {
            err << "error: fleetview --replay needs exactly one of "
                   "--model or --fleet\n";
            return 2;
        }
        LockstepReplay replay(args, loadDataset(replayPath));
        rollup::LiveRollupFeed feed(tree);
        placeSequentially(feed, replay.server.machineIds(), groupSize,
                          platform.empty() ? "unknown" : platform);
        // Join the snapshots into the tree every --ticks ticks.
        const serve::ReplayStats stats =
            replay.run(args, args.integer("ticks", 10), [&](std::size_t) {
                feed.observe(replay.server.snapshot(),
                             replay.fleetMonitor.snapshot());
            });
        out << "live replay: " << stats.ticks << " ticks x "
            << replay.server.numMachines() << " machines, "
            << feed.observed() << " roll-up joins\n";
    }

    const rollup::NodeSummary summary = tree.aggregate();
    const std::string drillPath = args.flagOr("path", "");
    const rollup::NodeSummary *node = summary.find(drillPath);
    if (!node) {
        err << "error: no roll-up group '" << drillPath << "'\n";
        return 2;
    }
    renderFleetview(*node, out);

    const std::string rollupOut = args.flagOr("rollup-out", "");
    if (!rollupOut.empty()) {
        std::string lines;
        appendRollupLines(summary, lines);
        writeTextFile(rollupOut, lines);
        out << "wrote " << tree.numNodes() << " roll-up nodes to "
            << rollupOut << "\n";
    }
    return 0;
}

/**
 * Replay a recorded trace through the full self-healing loop: fleet
 * server + quality monitor + remediation autopilot. Drift verdicts
 * quarantine the machine behind a substitute model, a retrain on the
 * live reference window produces a candidate, and a canary-gated swap
 * either promotes it or rolls back. --inject-stuck fault-injects the
 * trace itself (stuck counters under a moving workload) so the whole
 * loop can be demonstrated from a clean recording.
 *
 * Replay is synchronous and single-threaded (samples drain and the
 * autopilot ticks inside the replay onTick hook, retrains run inline)
 * so a fixed trace and seed reproduce the same remediation story.
 */
int
cmdAutopilot(const ParsedArgs &args, std::ostream &out,
             std::ostream &err)
{
    const std::string replayPath = args.flagOr("replay", "");
    if (replayPath.empty() || !oneModelSource(args)) {
        err << "usage: chaos autopilot --replay <data.csv> "
               "(--model <model.txt> | --fleet <manifest.txt>)\n"
               "    [--platform P] [--speed X] [--window N] "
               "[--warmup N]\n"
               "    [--drift-lambda L] [--drift-delta D]\n"
               "    [--substitute pooled|lastgood] [--retrain-type T]\n"
               "    [--canary-samples N] [--cooldown N] "
               "[--max-retrains N]\n"
               "    [--reference-window N] [--min-retrain-samples N]\n"
               "    [--inject-stuck \"machine0;machine1\"] "
               "[--inject-at T] [--inject-stagger N]\n"
               "    [--telemetry-out F.jsonl|tcp://h:p] [--telemetry-every N] "
               "[--dashboard-every N]\n";
        return 2;
    }

    // The pooled quarantine substitute is fit on the clean recording;
    // faults are injected afterwards, into the replayed copy only.
    const Dataset cleanData = loadDataset(replayPath);
    const std::string substituteMode =
        args.flagOr("substitute", "pooled");
    if (substituteMode != "pooled" && substituteMode != "lastgood") {
        err << "error: --substitute must be pooled or lastgood\n";
        return 2;
    }
    LockstepReplay replay(args, injectedTrace(args, cleanData));

    autopilot::AutopilotConfig pilotConfig;
    pilotConfig.backgroundRetrain = false; // Deterministic replay.
    pilotConfig.maxConcurrentRetrains = args.integer("max-retrains", 2);
    pilotConfig.referenceWindowSamples =
        args.integer("reference-window", 256);
    pilotConfig.retrainMinSamples =
        args.integer("min-retrain-samples", 64);
    pilotConfig.canaryMinSamples = args.integer("canary-samples", 32);
    pilotConfig.cooldownTicks = args.integer("cooldown", 60);
    const std::string retrainType = args.flagOr("retrain-type", "");
    if (!retrainType.empty()) {
        bool ok = false;
        pilotConfig.fallbackRetrainType =
            modelTypeFromString(retrainType, err, ok);
        if (!ok)
            return 2;
    }
    autopilot::AutopilotController pilot(replay.server,
                                         replay.fleetMonitor, pilotConfig);
    if (substituteMode == "pooled") {
        pilot.setSubstituteModel(
            fitPooledSubstitute(cleanData, replay.features));
    }
    const std::size_t dashboardEvery = args.integer("dashboard-every", 0);
    replay.openTelemetry(args);
    pilot.start();
    const serve::ReplayStats stats = replay.run(
        args, dashboardEvery,
        [&](std::size_t tick) {
            const serve::FleetSnapshot snap = replay.server.snapshot();
            size_t remediating = 0;
            for (const autopilot::MachineRemediation &machine :
                 pilot.status()) {
                if (machine.state !=
                    autopilot::RemediationState::Serving)
                    ++remediating;
            }
            out << "tick " << tick << ": cluster "
                << formatDouble(snap.clusterW, 1) << " W, quarantined "
                << snap.quarantined << "/" << snap.machines.size()
                << ", remediating " << remediating << "\n";
        },
        &pilot);
    pilot.stop();

    const monitor::QualitySnapshot quality =
        replay.fleetMonitor.snapshot();
    out << "replayed " << stats.ticks << " ticks x "
        << replay.server.numMachines() << " machines: "
        << stats.submitted << " samples, " << replay.server.processed()
        << " processed, " << replay.server.dropped() << " dropped\n";

    std::map<std::string, const monitor::MachineQualityReport *>
        reportById;
    for (const monitor::MachineQualityReport &machine :
         quality.machines)
        reportById[machine.id] = &machine;
    TextTable table({"Machine", "State", "Quality", "Quar", "Promo",
                     "Rollb", "Canary rMSE (W)"});
    for (const autopilot::MachineRemediation &machine :
         pilot.status()) {
        const auto report = reportById.find(machine.id);
        const std::string qualityName =
            report != reportById.end()
                ? modelQualityName(report->second->quality)
                : "n/a";
        const std::string canary =
            machine.promotions + machine.rollbacks > 0
                ? formatDouble(machine.lastCandidateRmseW, 2) +
                      " vs " +
                      formatDouble(machine.lastIncumbentRmseW, 2)
                : "n/a";
        table.addRow({machine.id,
                      autopilot::remediationStateName(machine.state),
                      qualityName, std::to_string(machine.quarantines),
                      std::to_string(machine.promotions),
                      std::to_string(machine.rollbacks), canary});
    }
    out << table.render();

    const autopilot::AutopilotStats pilotStats = pilot.stats();
    out << "autopilot summary: quarantines=" << pilotStats.quarantines
        << " retrains=" << pilotStats.retrainsStarted
        << " promotions=" << pilotStats.promotions
        << " rollbacks=" << pilotStats.rollbacks
        << " failures=" << pilotStats.retrainFailures << "\n";
    out << "drift events: " << replay.fleetMonitor.driftEvents()
        << "\n";
    replay.closeTelemetry(out);
    return 0;
}

int
cmdReport(const ParsedArgs &args, std::ostream &out,
          std::ostream &err)
{
    if (args.positional.size() != 2) {
        err << "usage: chaos report <data.csv>\n";
        return 2;
    }
    const Dataset data = loadDataset(args.positional[1]);
    if (data.numRows() == 0) {
        err << "error: empty dataset\n";
        return 2;
    }

    out << "# CHAOS dataset report\n\n";
    out << "- samples: " << data.numRows() << " machine-seconds\n";
    out << "- counters: " << data.numFeatures() << "\n";
    std::set<int> machines(data.machineIds().begin(),
                           data.machineIds().end());
    std::set<int> runs(data.runIds().begin(), data.runIds().end());
    out << "- machines: " << machines.size() << ", runs: "
        << runs.size() << "\n\n";

    out << "| workload | samples | min W | mean W | max W | "
           "energy/run (kJ) |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const auto &workload : data.workloadNames()) {
        std::vector<double> watts;
        std::set<int> workload_runs;
        for (size_t r = 0; r < data.numRows(); ++r) {
            if (data.workloadNames()[data.workloadIds()[r]] ==
                workload) {
                watts.push_back(data.powerW()[r]);
                workload_runs.insert(data.runIds()[r]);
            }
        }
        if (watts.empty())
            continue;
        double total = 0.0;
        for (double w : watts)
            total += w;
        out << "| " << workload << " | " << watts.size() << " | "
            << formatDouble(minValue(watts), 1) << " | "
            << formatDouble(total / watts.size(), 1) << " | "
            << formatDouble(maxValue(watts), 1) << " | "
            << formatDouble(total / 1000.0 /
                                static_cast<double>(
                                    workload_runs.size()),
                            1)
            << " |\n";
    }
    return 0;
}

} // namespace

namespace {

/** Dispatch one parsed subcommand; may raise RecoverableError. */
int
dispatch(const std::string &command, const ParsedArgs &parsed,
         std::ostream &out, std::ostream &err)
{
    if (command == "list-platforms")
        return cmdListPlatforms(out);
    if (command == "list-counters")
        return cmdListCounters(parsed, out, err);
    if (command == "probe")
        return cmdProbe(parsed, out, err);
    if (command == "collect")
        return cmdCollect(parsed, out, err);
    if (command == "select")
        return cmdSelect(parsed, out, err);
    if (command == "train")
        return cmdTrain(parsed, out, err);
    if (command == "evaluate")
        return cmdEvaluate(parsed, out, err);
    if (command == "predict")
        return cmdPredict(parsed, out, err);
    if (command == "serve")
        return cmdServe(parsed, out, err);
    if (command == "loadgen")
        return cmdLoadgen(parsed, out, err);
    if (command == "top")
        return cmdTop(parsed, out, err);
    if (command == "monitor")
        return cmdMonitor(parsed, out, err);
    if (command == "autopilot")
        return cmdAutopilot(parsed, out, err);
    if (command == "fleetview")
        return cmdFleetview(parsed, out, err);
    if (command == "report")
        return cmdReport(parsed, out, err);

    err << "error: unknown subcommand '" << command
        << "' (try 'chaos help')\n";
    return 2;
}

/**
 * Observability flags shared by every subcommand. Tracing is enabled
 * only when a trace output was requested; the export itself happens
 * after the subcommand ran.
 */
struct ObsOptions
{
    std::string traceOutPath;
    std::string traceSummaryPath;
    std::string metricsOutPath;

    static std::optional<ObsOptions> fromArgs(const ParsedArgs &args,
                                              std::ostream &err)
    {
        const std::string level_name = args.flagOr("log-level", "");
        if (!level_name.empty()) {
            LogLevel level;
            if (!logLevelFromName(level_name, level)) {
                err << "error: unknown log level '" << level_name
                    << "' (debug|info|warn|error|silent)\n";
                return std::nullopt;
            }
            setLogLevel(level);
        }
        ObsOptions options;
        options.traceOutPath = args.flagOr("trace-out", "");
        options.traceSummaryPath = args.flagOr("trace-summary", "");
        options.metricsOutPath = args.flagOr("metrics-out", "");
        if (!options.traceOutPath.empty() ||
            !options.traceSummaryPath.empty())
            obs::setTraceEnabled(true);
        return options;
    }

    /** Export whatever was requested; raises on unwritable paths. */
    void exportAll() const
    {
        if (!traceOutPath.empty())
            writeTextFile(traceOutPath, obs::chromeTraceJson());
        if (!traceSummaryPath.empty())
            writeTextFile(traceSummaryPath, obs::phaseSummary());
        if (!metricsOutPath.empty()) {
            writeTextFile(metricsOutPath,
                          obs::Registry::instance().snapshotJson(
                              /*includeScheduling=*/true));
        }
    }
};

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    if (args.empty() || args[0] == "help" || args[0] == "--help")
        return cmdHelp(out);

    const auto parsed = parseArgs(args, err);
    if (!parsed)
        return 2;

    const auto obs_options = ObsOptions::fromArgs(*parsed, err);
    if (!obs_options)
        return 2;

    const std::string &command = parsed->positional.empty()
                                     ? args[0]
                                     : parsed->positional[0];
    // The library raises RecoverableError on malformed user data
    // (bad dataset CSV, corrupt model file, unknown names); the CLI
    // is the process boundary where that becomes an error message
    // and a nonzero exit code.
    int code;
    try {
        code = dispatch(command, *parsed, out, err);
    } catch (const RecoverableError &e) {
        err << "error: " << e.message() << "\n";
        code = 2;
    }
    // Trace/metrics exports also cover failed runs: observability is
    // most valuable exactly when a run went wrong.
    try {
        obs_options->exportAll();
    } catch (const RecoverableError &e) {
        err << "error: " << e.message() << "\n";
        return 2;
    }
    return code;
}

} // namespace chaos
