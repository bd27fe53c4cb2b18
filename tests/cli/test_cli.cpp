/**
 * @file
 * Tests for the `chaos` CLI, driving runCli() directly and exercising
 * the full collect -> select -> train -> evaluate -> predict flow on
 * a miniature dataset.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cli/cli.hpp"
#include "obs/json.hpp"

namespace chaos {
namespace {

struct CliResult
{
    int code = 0;
    std::string out;
    std::string err;
};

CliResult
run(const std::vector<std::string> &args)
{
    std::ostringstream out, err;
    CliResult result;
    result.code = runCli(args, out, err);
    result.out = out.str();
    result.err = err.str();
    return result;
}

/** Collect a tiny dataset once for the pipeline tests. */
const std::string &
tinyDatasetPath()
{
    static const std::string path = [] {
        // Process-unique name: ctest runs each test in its own
        // process, concurrently, and a shared file would race.
        const std::string csv = ::testing::TempDir() + "cli_data_" +
                                std::to_string(::getpid()) + ".csv";
        const CliResult result =
            run({"collect", "Core2", "--out", csv, "--machines", "2",
                 "--runs", "2", "--scale", "0.15", "--seed", "77"});
        EXPECT_EQ(result.code, 0) << result.err;
        return csv;
    }();
    return path;
}

/** Train a linear model on the tiny dataset once per process. */
const std::string &
tinyModelPath()
{
    static const std::string path = [] {
        const std::string model = ::testing::TempDir() + "cli_linear_" +
                                  std::to_string(::getpid()) + ".txt";
        const CliResult result = run({"train", tinyDatasetPath(),
                                      "--out", model, "--type",
                                      "linear"});
        EXPECT_EQ(result.code, 0) << result.err;
        return model;
    }();
    return path;
}

/** A process-unique scratch path ending in @p suffix. */
std::string
tempPath(const std::string &suffix)
{
    return ::testing::TempDir() + "cli_" + std::to_string(::getpid()) +
           "_" + suffix;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The "drifting K" count of the last dashboard or fleetview line. */
int
lastDriftingCount(const std::string &out)
{
    static const std::regex pattern(R"(drifting (\d+))");
    int count = -1;
    for (std::sregex_iterator it(out.begin(), out.end(), pattern), end;
         it != end; ++it)
        count = std::stoi((*it)[1]);
    return count;
}

/** tick -> cluster_w of every fleet record in a telemetry JSONL file. */
std::map<double, double>
clusterWattsByTick(const std::string &path)
{
    std::map<double, double> watts;
    std::istringstream lines(readFile(path));
    std::string line;
    while (std::getline(lines, line)) {
        obs::JsonValue record;
        EXPECT_TRUE(obs::jsonParse(line, record)) << line;
        const obs::JsonValue *fleet = record.find("fleet");
        if (fleet == nullptr)
            continue;
        watts[record.find("tick")->asNumber()] =
            fleet->find("cluster_w")->asNumber();
    }
    return watts;
}

TEST(Cli, HelpListsSubcommands)
{
    const CliResult result = run({"help"});
    EXPECT_EQ(result.code, 0);
    for (const char *cmd : {"collect", "select", "train", "evaluate",
                            "predict", "probe"}) {
        EXPECT_NE(result.out.find(cmd), std::string::npos) << cmd;
    }
}

TEST(Cli, NoArgsShowsHelp)
{
    const CliResult result = run({});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("subcommands"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails)
{
    const CliResult result = run({"frobnicate"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("unknown subcommand"),
              std::string::npos);
}

TEST(Cli, FlagWithoutValueFails)
{
    const CliResult result = run({"collect", "Core2", "--out"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("needs a value"), std::string::npos);
}

TEST(Cli, ListPlatformsIncludesPaperSixAndFuture)
{
    const CliResult result = run({"list-platforms"});
    EXPECT_EQ(result.code, 0);
    for (const char *name : {"Atom", "Core2", "Athlon", "Opteron",
                             "XeonSATA", "XeonSAS", "FutureServer"}) {
        EXPECT_NE(result.out.find(name), std::string::npos) << name;
    }
}

TEST(Cli, ListCountersFiltersByCategory)
{
    const CliResult all = run({"list-counters"});
    EXPECT_EQ(all.code, 0);
    EXPECT_NE(all.out.find("% Processor Time"), std::string::npos);

    const CliResult memory =
        run({"list-counters", "--category", "memory"});
    EXPECT_EQ(memory.code, 0);
    EXPECT_NE(memory.out.find("Pages/sec"), std::string::npos);
    EXPECT_EQ(memory.out.find("PhysicalDisk"), std::string::npos);

    const CliResult none =
        run({"list-counters", "--category", "nosuch"});
    EXPECT_EQ(none.code, 2);
}

TEST(Cli, ProbeReportsEnvelope)
{
    const CliResult result = run({"probe", "Atom"});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("idle"), std::string::npos);
    EXPECT_NE(result.out.find("spec 22-26"), std::string::npos);
}

TEST(Cli, ProbeWithoutPlatformFails)
{
    EXPECT_EQ(run({"probe"}).code, 2);
}

TEST(Cli, CollectWritesDataset)
{
    const CliResult result =
        run({"select", tinyDatasetPath()});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("funnel:"), std::string::npos);
    EXPECT_NE(result.out.find("% Processor Time"),
              std::string::npos);
}

TEST(Cli, TrainEvaluatePredictPipeline)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_model.txt";

    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "piecewise"});
    ASSERT_EQ(trained.code, 0) << trained.err;
    EXPECT_NE(trained.out.find("trained piecewise-linear"),
              std::string::npos);

    const CliResult evaluated =
        run({"evaluate", tinyDatasetPath(), "--type", "piecewise",
             "--folds", "2"});
    ASSERT_EQ(evaluated.code, 0) << evaluated.err;
    EXPECT_NE(evaluated.out.find("avg machine DRE"),
              std::string::npos);

    const CliResult predicted =
        run({"predict", model_path, tinyDatasetPath()});
    ASSERT_EQ(predicted.code, 0) << predicted.err;
    EXPECT_NE(predicted.out.find("rMSE vs meter"),
              std::string::npos);

    std::remove(model_path.c_str());
}

TEST(Cli, TrainWithExplicitFeatures)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_model2.txt";
    const CliResult result = run(
        {"train", tinyDatasetPath(), "--out", model_path, "--type",
         "linear", "--features",
         "Processor(_Total)\\% Processor Time;"
         "Processor Performance\\Processor_0 Frequency"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("2 counters"), std::string::npos);
    std::remove(model_path.c_str());
}

TEST(Cli, TrainRejectsUnknownType)
{
    const CliResult result =
        run({"train", tinyDatasetPath(), "--out", "/tmp/x.txt",
             "--type", "neural"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("unknown model type"),
              std::string::npos);
}

TEST(Cli, MonitorReplayReportsQualityAndWritesTelemetry)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_monitor_model_" +
        std::to_string(::getpid()) + ".txt";
    const std::string telemetry_path =
        ::testing::TempDir() + "cli_monitor_tel_" +
        std::to_string(::getpid()) + ".jsonl";

    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "quadratic"});
    ASSERT_EQ(trained.code, 0) << trained.err;

    const CliResult monitored =
        run({"monitor", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--telemetry-out",
             telemetry_path, "--dashboard-every", "100"});
    ASSERT_EQ(monitored.code, 0) << monitored.err;
    EXPECT_NE(monitored.out.find("monitored"), std::string::npos);
    EXPECT_NE(monitored.out.find("drift events:"), std::string::npos);
    EXPECT_NE(monitored.out.find("telemetry records"),
              std::string::npos);
    // The dashboard printed at least one per-tick line.
    EXPECT_NE(monitored.out.find("tick 0:"), std::string::npos);

    std::ifstream telemetry(telemetry_path);
    ASSERT_TRUE(telemetry.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(telemetry, line))
        ++lines;
    EXPECT_GT(lines, 0u);

    std::remove(model_path.c_str());
    std::remove(telemetry_path.c_str());
}

TEST(Cli, MonitorWithoutReplayOrModelFails)
{
    EXPECT_EQ(run({"monitor"}).code, 2);
    EXPECT_EQ(run({"monitor", "--replay", "x.csv"}).code, 2);
}

/**
 * The self-healing replay end to end through the CLI: a clean replay
 * reports zero remediations, and the same trace with an injected
 * stuck-counter fault drives machine0 through quarantine, retrain,
 * and a canary-gated promotion.
 */
TEST(Cli, AutopilotReplayHealsInjectedStuckCounterFault)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_autopilot_model_" +
        std::to_string(::getpid()) + ".txt";
    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "linear"});
    ASSERT_EQ(trained.code, 0) << trained.err;

    const std::vector<std::string> common = {
        "autopilot",     "--replay",  tinyDatasetPath(),
        "--model",       model_path,  "--warmup",
        "40",            "--window",  "30",
        "--min-retrain-samples", "32", "--canary-samples",
        "16",            "--cooldown", "30"};

    CliResult clean = run(common);
    ASSERT_EQ(clean.code, 0) << clean.err;
    EXPECT_NE(clean.out.find("autopilot summary: quarantines=0 "
                             "retrains=0 promotions=0 rollbacks=0 "
                             "failures=0"),
              std::string::npos)
        << clean.out;
    EXPECT_NE(clean.out.find("drift events: 0"), std::string::npos);

    std::vector<std::string> faulted = common;
    for (const char *arg :
         {"--inject-stuck", "machine0", "--inject-at", "60"})
        faulted.push_back(arg);
    CliResult healed = run(faulted);
    ASSERT_EQ(healed.code, 0) << healed.err;
    // At least one full quarantine -> retrain -> promote cycle ran
    // (a long trace may legitimately remediate more than once as new
    // workload phases re-drift the frozen counters).
    EXPECT_NE(healed.out.find("autopilot summary:"),
              std::string::npos);
    EXPECT_EQ(healed.out.find("quarantines=0"), std::string::npos)
        << healed.out;
    EXPECT_EQ(healed.out.find("promotions=0"), std::string::npos)
        << healed.out;
    EXPECT_NE(healed.out.find("rollbacks=0"), std::string::npos)
        << healed.out;
    // The remediated machine finished the replay serving again.
    EXPECT_NE(healed.out.find("| machine0 | serving"),
              std::string::npos)
        << healed.out;

    std::remove(model_path.c_str());
}

TEST(Cli, AutopilotWithoutReplayOrModelFails)
{
    EXPECT_EQ(run({"autopilot"}).code, 2);
    EXPECT_EQ(run({"autopilot", "--replay", "x.csv", "--substitute",
                   "bogus"})
                  .code,
              2);
}

TEST(Cli, FleetviewSyntheticRendersTablesAndRollupExport)
{
    const std::string rollup_path =
        ::testing::TempDir() + "cli_fleetview_rollup_" +
        std::to_string(::getpid()) + ".jsonl";

    const CliResult result =
        run({"fleetview", "--synthetic", "200", "--ticks", "20",
             "--seed", "7", "--worst", "3", "--rollup-out",
             rollup_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("synthetic fleet: 200 machines"),
              std::string::npos);
    EXPECT_NE(result.out.find("fleetview (root):"),
              std::string::npos);
    // Drill-down, platform, and worst-N tables all rendered.
    EXPECT_NE(result.out.find("Drift rate"), std::string::npos);
    EXPECT_NE(result.out.find("Platform"), std::string::npos);
    EXPECT_NE(result.out.find("Worst machine"), std::string::npos);
    EXPECT_NE(result.out.find("DRE p99"), std::string::npos);

    // Every exported roll-up line is well-formed JSON; the count
    // matches what the CLI reported.
    std::ifstream rollup(rollup_path);
    ASSERT_TRUE(rollup.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(rollup, line)) {
        ++lines;
        EXPECT_TRUE(obs::jsonWellFormed(line)) << "line " << lines;
    }
    EXPECT_GT(lines, 1u);  // Root plus at least one group.
    EXPECT_NE(result.out.find("wrote " + std::to_string(lines) +
                              " roll-up nodes"),
              std::string::npos)
        << result.out;
    std::remove(rollup_path.c_str());
}

TEST(Cli, FleetviewDrillsDownToANamedGroup)
{
    const CliResult root =
        run({"fleetview", "--synthetic", "100", "--ticks", "10"});
    ASSERT_EQ(root.code, 0) << root.err;

    const CliResult drilled =
        run({"fleetview", "--synthetic", "100", "--ticks", "10",
             "--path", "dc0/row0"});
    ASSERT_EQ(drilled.code, 0) << drilled.err;
    EXPECT_NE(drilled.out.find("fleetview dc0/row0:"),
              std::string::npos)
        << drilled.out;

    const CliResult missing =
        run({"fleetview", "--synthetic", "100", "--ticks", "10",
             "--path", "dc9/nope"});
    EXPECT_EQ(missing.code, 2);
    EXPECT_NE(missing.err.find("no roll-up group"),
              std::string::npos);
}

TEST(Cli, FleetviewLiveReplayAggregatesTheFleet)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_fleetview_model_" +
        std::to_string(::getpid()) + ".txt";
    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "linear"});
    ASSERT_EQ(trained.code, 0) << trained.err;

    const CliResult viewed =
        run({"fleetview", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--group-size", "1",
             "--ticks", "5"});
    ASSERT_EQ(viewed.code, 0) << viewed.err;
    EXPECT_NE(viewed.out.find("live replay:"), std::string::npos);
    EXPECT_NE(viewed.out.find("fleetview (root):"),
              std::string::npos);
    // group-size 1 puts each machine in its own fleet<K> group.
    EXPECT_NE(viewed.out.find("fleet0"), std::string::npos);
    EXPECT_NE(viewed.out.find("fleet1"), std::string::npos);
    EXPECT_NE(viewed.out.find("Core2"), std::string::npos);
    std::remove(model_path.c_str());
}

TEST(Cli, FleetviewTelemetryReplayRendersTheSameDashboard)
{
    const std::string model_path =
        ::testing::TempDir() + "cli_fleetview_tel_model_" +
        std::to_string(::getpid()) + ".txt";
    const std::string telemetry_path =
        ::testing::TempDir() + "cli_fleetview_tel_" +
        std::to_string(::getpid()) + ".jsonl";

    const CliResult trained =
        run({"train", tinyDatasetPath(), "--out", model_path,
             "--type", "linear"});
    ASSERT_EQ(trained.code, 0) << trained.err;
    const CliResult monitored =
        run({"monitor", "--replay", tinyDatasetPath(), "--model",
             model_path, "--platform", "Core2", "--telemetry-out",
             telemetry_path});
    ASSERT_EQ(monitored.code, 0) << monitored.err;

    // The offline JSONL path lands in the same tree and renders the
    // same dashboard as the live feed.
    const CliResult viewed =
        run({"fleetview", "--telemetry", telemetry_path,
             "--group-size", "1", "--platform", "Core2"});
    ASSERT_EQ(viewed.code, 0) << viewed.err;
    EXPECT_NE(viewed.out.find("telemetry replay:"),
              std::string::npos);
    EXPECT_NE(viewed.out.find("fleetview (root):"),
              std::string::npos);
    EXPECT_NE(viewed.out.find("Worst machine"), std::string::npos);
    EXPECT_NE(viewed.out.find("Core2"), std::string::npos);

    std::remove(model_path.c_str());
    std::remove(telemetry_path.c_str());
}

TEST(Cli, FleetviewUsageErrors)
{
    // No mode, two modes, and --replay without a model all fail.
    EXPECT_EQ(run({"fleetview"}).code, 2);
    EXPECT_EQ(run({"fleetview", "--synthetic", "10", "--telemetry",
                   "x.jsonl"})
                  .code,
              2);
    EXPECT_EQ(run({"fleetview", "--replay", "x.csv"}).code, 2);
}

TEST(Cli, ReportSummarizesWorkloads)
{
    const CliResult result = run({"report", tinyDatasetPath()});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("# CHAOS dataset report"),
              std::string::npos);
    for (const char *workload :
         {"Sort", "PageRank", "Prime", "WordCount"}) {
        EXPECT_NE(result.out.find(workload), std::string::npos)
            << workload;
    }
    EXPECT_NE(result.out.find("energy/run"), std::string::npos);
}

TEST(Cli, ReportWithoutDatasetFails)
{
    EXPECT_EQ(run({"report"}).code, 2);
}

TEST(Cli, UsageErrorsForMissingArguments)
{
    EXPECT_EQ(run({"collect", "Core2"}).code, 2);
    EXPECT_EQ(run({"select"}).code, 2);
    EXPECT_EQ(run({"train", "data.csv"}).code, 2);
    EXPECT_EQ(run({"evaluate"}).code, 2);
    EXPECT_EQ(run({"predict", "model.txt"}).code, 2);
}

TEST(Cli, TopUsageErrors)
{
    // No target, and a target without a port, are usage errors
    // (exit 2) — never an attempted connection.
    EXPECT_EQ(run({"top"}).code, 2);
    EXPECT_EQ(run({"top", "--target", "localhost"}).code, 2);
    const CliResult help = run({"help"});
    EXPECT_NE(help.out.find("top --target"), std::string::npos);
}

/**
 * Malformed numeric flags are user errors: exit 2 with the flag (or
 * the count the campaign refuses) named on stderr, never an uncaught
 * exception, a division by zero or an empty dataset.
 */
TEST(Cli, MalformedNumericFlagsExitTwoNamingTheFlag)
{
    const std::string data = tinyDatasetPath();
    const std::string model = tinyModelPath();
    const std::string telemetry = tempPath("bad_flags.jsonl");
    const struct
    {
        std::vector<std::string> args;
        const char *flag;
        bool silentOut = false; ///< Refused before any banner.
    } cases[] = {
        {{"serve", "--listen", "0", "--shards", "abc"}, "--shards"},
        {{"serve", "--listen", "70000"}, "--listen"},
        {{"loadgen", "--target", "127.0.0.1:1", "--connections", "zz"},
         "--connections"},
        {{"monitor", "--replay", data, "--model", model, "--window",
          "-5"},
         "--window"},
        {{"monitor", "--replay", data, "--model", model,
          "--telemetry-out", telemetry, "--telemetry-every", "0"},
         "--telemetry-every"},
        {{"monitor", "--replay", data, "--model", model, "--speed",
          "nan"},
         "--speed"},
        {{"autopilot", "--replay", data, "--model", model,
          "--telemetry-out", telemetry, "--telemetry-every", "0"},
         "--telemetry-every"},
        {{"autopilot", "--replay", data, "--model", model,
          "--cooldown", "12x"},
         "--cooldown"},
        {{"fleetview", "--synthetic", "10", "--worst", "x"}, "--worst"},
        {{"fleetview", "--synthetic", "10", "--group-size", "0"},
         "--group-size"},
        {{"fleetview", "--replay", data, "--model", model,
          "--drift-lambda", "inf"},
         "--drift-lambda"},
        {{"top", "--target", "h:1", "--timeout-ms", "x"},
         "--timeout-ms"},
        {{"evaluate", data, "--folds", "1"}, "--folds"},
        {{"collect", "Core2", "--out", telemetry, "--scale", ""},
         "--scale"},
        // Zero counts parse, and the campaign refuses them.
        {{"collect", "Core2", "--out", telemetry, "--runs", "0"},
         "at least one run per workload",
         true},
        {{"collect", "Core2", "--out", telemetry, "--machines", "0"},
         "at least one machine",
         true},
    };
    for (const auto &c : cases) {
        const CliResult result = run(c.args);
        EXPECT_EQ(result.code, 2) << c.flag;
        EXPECT_NE(result.err.find(c.flag), std::string::npos)
            << c.flag << ": " << result.err;
        if (c.silentOut) {
            EXPECT_EQ(result.out, "") << c.flag;
        }
    }
    std::remove(telemetry.c_str());
}

/**
 * fleetview --replay honours the monitor's drift flags: a `monitor`
 * run, the fleetview over its telemetry, and a live fleetview replay
 * with the same flags agree on how many machines are drifting. Each
 * flag set moves the count away from what the defaults give.
 */
TEST(Cli, FleetviewReplayHonoursDriftFlags)
{
    const std::string telemetry = tempPath("drift.jsonl");
    for (const std::vector<std::string> &flags :
         {std::vector<std::string>{"--drift-lambda", "10"},
          std::vector<std::string>{"--drift-delta", "1"}}) {
        std::vector<std::string> common = {"--warmup", "50"};
        common.insert(common.end(), flags.begin(), flags.end());

        std::vector<std::string> monitorArgs = {
            "monitor",        "--replay",   tinyDatasetPath(),
            "--model",        tinyModelPath(), "--telemetry-out",
            telemetry,        "--dashboard-every", "1000000"};
        monitorArgs.insert(monitorArgs.end(), common.begin(),
                           common.end());
        const CliResult monitored = run(monitorArgs);
        ASSERT_EQ(monitored.code, 0) << monitored.err;

        const CliResult offline =
            run({"fleetview", "--telemetry", telemetry});
        ASSERT_EQ(offline.code, 0) << offline.err;

        std::vector<std::string> liveArgs = {"fleetview", "--replay",
                                             tinyDatasetPath(), "--model",
                                             tinyModelPath()};
        liveArgs.insert(liveArgs.end(), common.begin(), common.end());
        const CliResult live = run(liveArgs);
        ASSERT_EQ(live.code, 0) << live.err;

        const int drifting = lastDriftingCount(monitored.out);
        EXPECT_GE(drifting, 0) << monitored.out;
        EXPECT_EQ(lastDriftingCount(offline.out), drifting)
            << flags[0] << "\n" << offline.out;
        EXPECT_EQ(lastDriftingCount(live.out), drifting)
            << flags[0] << "\n" << live.out;
    }
    std::remove(telemetry.c_str());
}

/**
 * `serve --replay` accounts for every sample (submitted = processed +
 * dropped) and --snapshots-out writes one JSON array of snapshots.
 */
TEST(Cli, ServeReplayAccountsForEverySampleAndWritesSnapshots)
{
    const std::string snapshots = tempPath("snapshots.json");
    const CliResult served =
        run({"serve", "--replay", tinyDatasetPath(), "--model",
             tinyModelPath(), "--snapshot-every", "200",
             "--snapshots-out", snapshots});
    ASSERT_EQ(served.code, 0) << served.err;

    std::smatch counts;
    ASSERT_TRUE(std::regex_search(
        served.out, counts,
        std::regex(R"((\d+) samples submitted, (\d+) processed, )"
                   R"((\d+) dropped)")))
        << served.out;
    const unsigned long submitted = std::stoul(counts[1]);
    EXPECT_GT(submitted, 0u);
    EXPECT_EQ(submitted,
              std::stoul(counts[2]) + std::stoul(counts[3]));

    obs::JsonValue json;
    ASSERT_TRUE(obs::jsonParse(readFile(snapshots), json));
    ASSERT_TRUE(json.isArray());
    EXPECT_GT(json.items().size(), 1u);
    std::remove(snapshots.c_str());
}

/**
 * `serve --listen` on a thread with an in-process `loadgen` against
 * it: every sample sent is accepted, the server stops on its sample
 * budget, and --stats-out is valid JSON.
 */
TEST(Cli, ServeListenAcceptsEveryLoadgenSample)
{
    const std::string portFile = tempPath("port");
    const std::string statsFile = tempPath("stats.json");
    std::remove(portFile.c_str());

    CliResult server;
    std::thread serving([&] {
        server = run({"serve", "--listen", "0", "--machines", "4",
                      "--port-file", portFile, "--ingest-max-samples",
                      "2000", "--ingest-idle-ms", "10000",
                      "--stats-out", statsFile});
    });
    std::string port;
    for (int i = 0; i < 500 && port.empty(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::string text = readFile(portFile);
        if (!text.empty() && text.back() == '\n')
            port = text.substr(0, text.size() - 1);
    }
    CliResult loaded;
    if (!port.empty()) {
        loaded = run({"loadgen", "--target", "127.0.0.1:" + port,
                      "--connections", "4", "--samples", "500",
                      "--machines", "4"});
    }
    // The server ends on its sample budget, or on the idle window when
    // loadgen never reached it; join before any assertion can return.
    serving.join();
    ASSERT_FALSE(port.empty()) << "server never wrote its port";
    EXPECT_EQ(loaded.code, 0) << loaded.err;
    EXPECT_NE(loaded.out.find("2000 sent = 2000 accepted + 0 rejected"),
              std::string::npos)
        << loaded.out;
    ASSERT_EQ(server.code, 0) << server.err;
    EXPECT_NE(server.out.find("2000 samples accepted"),
              std::string::npos)
        << server.out;

    obs::JsonValue stats;
    ASSERT_TRUE(obs::jsonParse(readFile(statsFile), stats));
    EXPECT_NE(stats.find("ingest"), nullptr);
    EXPECT_NE(stats.find("fleet"), nullptr);
    std::remove(portFile.c_str());
    std::remove(statsFile.c_str());
}

/**
 * `monitor` and a clean `autopilot` replay share one lockstep loop:
 * with the same trace and flags, their telemetry reports the same
 * cluster power at every exported tick.
 */
TEST(Cli, MonitorAndCleanAutopilotReplaysAgreeOnClusterPower)
{
    const std::string monitorTel = tempPath("lockstep_monitor.jsonl");
    const std::string pilotTel = tempPath("lockstep_pilot.jsonl");
    const std::vector<std::string> common = {
        "--replay", tinyDatasetPath(), "--model", tinyModelPath(),
        "--warmup", "40", "--window", "30", "--telemetry-every", "7"};

    std::vector<std::string> monitorArgs = {"monitor"};
    monitorArgs.insert(monitorArgs.end(), common.begin(), common.end());
    monitorArgs.insert(monitorArgs.end(), {"--telemetry-out", monitorTel});
    const CliResult monitored = run(monitorArgs);
    ASSERT_EQ(monitored.code, 0) << monitored.err;

    std::vector<std::string> pilotArgs = {"autopilot"};
    pilotArgs.insert(pilotArgs.end(), common.begin(), common.end());
    pilotArgs.insert(pilotArgs.end(), {"--telemetry-out", pilotTel});
    const CliResult piloted = run(pilotArgs);
    ASSERT_EQ(piloted.code, 0) << piloted.err;
    EXPECT_NE(piloted.out.find("quarantines=0"), std::string::npos)
        << piloted.out;

    const std::map<double, double> expected =
        clusterWattsByTick(monitorTel);
    EXPECT_GT(expected.size(), 10u);
    EXPECT_EQ(clusterWattsByTick(pilotTel), expected);
    std::remove(monitorTel.c_str());
    std::remove(pilotTel.c_str());
}

} // namespace
} // namespace chaos
