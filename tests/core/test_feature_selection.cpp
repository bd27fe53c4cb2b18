/**
 * @file
 * Tests for Algorithm 1: the six-step feature reduction pipeline.
 */
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign_fixture.hpp"
#include "oscounters/counter_catalog.hpp"
#include "stats/correlation.hpp"

namespace chaos {
namespace {

using testing_support::core2Campaign;

TEST(FeatureSelection, FunnelShrinksMonotonically)
{
    const auto &selection = core2Campaign().selection;
    EXPECT_GT(selection.catalogSize, 150u);
    EXPECT_LT(selection.afterConstantDrop, selection.catalogSize);
    EXPECT_LE(selection.afterCorrelation, selection.afterConstantDrop);
    EXPECT_LE(selection.afterCoDependency, selection.afterCorrelation);
    EXPECT_LE(selection.selected.size(), selection.afterCoDependency);
    // Paper: 250 -> ~50 -> ~order-10 features.
    EXPECT_GE(selection.selected.size(), 3u);
    EXPECT_LE(selection.selected.size(), 25u);
}

TEST(FeatureSelection, SelectsUtilizationAsCoreSignal)
{
    // "Processor utilization was the most commonly identified
    // feature" (paper Fig. 2 discussion).
    const auto &selection = core2Campaign().selection;
    const auto &selected = selection.selected;
    EXPECT_NE(std::find(selected.begin(), selected.end(),
                        counters::kCpuUtilization),
              selected.end());
}

TEST(FeatureSelection, Core2SelectsFrequency)
{
    // On a DVFS platform the frequency counter is a dominant feature
    // (paper Table II: every DVFS platform selects Processor_0
    // Frequency).
    const auto &selected = core2Campaign().selection.selected;
    EXPECT_NE(std::find(selected.begin(), selected.end(),
                        counters::kCore0Frequency),
              selected.end());
}

TEST(FeatureSelection, ExcludedCountersNeverSelected)
{
    const auto &selected = core2Campaign().selection.selected;
    for (const auto &name : selected) {
        EXPECT_NE(name, counters::kCore0FrequencyLag);
        EXPECT_NE(name, "System\\System Up Time");
    }
}

TEST(FeatureSelection, SelectedFeaturesAreDecorrelated)
{
    // Step 1's contract: no surviving pair correlates above the
    // threshold on the screening data.
    const auto &campaign = core2Campaign();
    const auto &selected = campaign.selection.selected;
    const Dataset sub =
        campaign.data.selectFeaturesByName(selected);
    const Matrix corr = correlationMatrix(sub.features());
    for (size_t i = 0; i < selected.size(); ++i) {
        for (size_t j = i + 1; j < selected.size(); ++j) {
            EXPECT_LE(std::fabs(corr(i, j)), 0.97)
                << selected[i] << " vs " << selected[j];
        }
    }
}

TEST(FeatureSelection, HistogramCoversSelectedFeatures)
{
    const auto &selection = core2Campaign().selection;
    for (const auto &name : selection.selected) {
        const auto it = selection.histogram.find(name);
        ASSERT_NE(it, selection.histogram.end()) << name;
        EXPECT_GE(it->second, selection.finalThreshold) << name;
    }
}

TEST(FeatureSelection, ThresholdStartsAtConfiguredValue)
{
    // The paper starts at 5; stepwise may push it up (to 7 there).
    const auto &selection = core2Campaign().selection;
    EXPECT_GE(selection.finalThreshold, 5.0);
    EXPECT_LE(selection.finalThreshold, 20.0);
}

TEST(FeatureSelection, PerMachineRecordsCoverMachinesAndWorkloads)
{
    const auto &campaign = core2Campaign();
    const auto &records = campaign.selection.perMachine;
    ASSERT_FALSE(records.empty());

    std::set<int> machines;
    std::set<std::string> workloads;
    for (const auto &record : records) {
        machines.insert(record.machineId);
        workloads.insert(record.workload);
        // Step 4 output is a subset of step 3 output.
        for (const auto &name : record.significant) {
            EXPECT_NE(std::find(record.lassoSelected.begin(),
                                record.lassoSelected.end(), name),
                      record.lassoSelected.end());
        }
    }
    EXPECT_EQ(machines.size(), 3u);
    EXPECT_EQ(workloads.size(), 4u);
}

TEST(FeatureSelection, ScreeningDropsCoDependentSums)
{
    // After step 2, a derived counter and its addend cannot both
    // survive alongside each other.
    const auto &campaign = core2Campaign();
    FeatureSelectionConfig config;
    Rng rng(3);
    FeatureSelectionResult funnel;
    const auto survivors =
        screenCounters(campaign.data, config, rng, &funnel);

    std::set<std::string> names;
    for (size_t idx : survivors)
        names.insert(campaign.data.featureNames()[idx]);

    for (const auto &dep : CounterCatalog::instance().coDependencies()) {
        if (!names.count(dep.sum))
            continue;
        // If the sum survived, no addend may have survived.
        for (const auto &part : dep.parts)
            EXPECT_FALSE(names.count(part))
                << dep.sum << " and " << part << " both survived";
    }
}

TEST(FeatureSelection, ScreeningDropsConstantCounters)
{
    // Core2 has 2 cores: core 5's utilization is constant zero and
    // must not survive screening.
    const auto &campaign = core2Campaign();
    FeatureSelectionConfig config;
    Rng rng(4);
    const auto survivors =
        screenCounters(campaign.data, config, rng, nullptr);
    for (size_t idx : survivors) {
        EXPECT_NE(campaign.data.featureNames()[idx],
                  "Processor(5)\\% Processor Time");
    }
}

TEST(FeatureSelection, TighterCorrelationThresholdKeepsMore)
{
    // Sensitivity knob from the paper: |r| > 0.95 with diminishing
    // returns below. A looser threshold (0.999) must keep at least
    // as many counters as 0.95.
    const auto &campaign = core2Campaign();
    Rng rng_a(5), rng_b(5);

    FeatureSelectionConfig strict;
    strict.correlationThreshold = 0.95;
    FeatureSelectionConfig loose;
    loose.correlationThreshold = 0.999;

    const auto kept_strict =
        screenCounters(campaign.data, strict, rng_a, nullptr);
    const auto kept_loose =
        screenCounters(campaign.data, loose, rng_b, nullptr);
    EXPECT_GE(kept_loose.size(), kept_strict.size());
}

/** Algorithm 1's outcome on one platform's small fixed-seed campaign. */
struct PinnedSelection
{
    std::string platform;
    double finalThreshold;
    std::vector<std::string> selected;
    /** Each slice's L1 survivors, as feature indices, in slice order. */
    std::vector<std::vector<size_t>> lassoSelected;
};

/** @p pin as C++ source, to paste into the table when a change to the
 *  selection is intended. */
std::string
pinSource(const PinnedSelection &pin)
{
    std::ostringstream out;
    out << "        {\"" << pin.platform << "\",\n         "
        << std::setprecision(17) << pin.finalThreshold << ",\n         {";
    for (size_t i = 0; i < pin.selected.size(); ++i) {
        out << (i ? ",\n          \"" : "\"");
        for (char ch : pin.selected[i])
            out << (ch == '\\' ? "\\\\" : std::string(1, ch));
        out << "\"";
    }
    out << "},\n         {";
    for (size_t s = 0; s < pin.lassoSelected.size(); ++s) {
        out << (s ? ",\n          {" : "{");
        for (size_t i = 0; i < pin.lassoSelected[s].size(); ++i)
            out << (i ? ", " : "") << pin.lassoSelected[s][i];
        out << "}";
    }
    out << "}},\n";
    return out.str();
}

/**
 * Algorithm 1 must keep selecting exactly these features: 3 machines
 * x 2 runs per workload at duration scale 0.05, seed 2012, on every
 * platform. The values were captured from the residual-update L1
 * solver and a serial slice loop, so they pin that neither the
 * covariance-update solver nor the parallel slices change a choice.
 */
TEST(FeatureSelection, PinnedOnSmallCampaignsOfEveryPlatform)
{
    const std::vector<PinnedSelection> expected = {
        {"Atom",
         5,
         {"Processor(_Total)\\% Processor Time"},
         {{48, 77, 91, 117, 142, 147, 150, 175, 177, 180, 182, 183},
          {48, 49, 69, 70, 86, 147, 149, 150, 159, 162, 167, 172},
          {48, 69, 70, 83, 86, 141, 150, 168, 175, 177, 181},
          {48, 49, 70, 83, 147, 162, 167, 174, 175, 177, 180},
          {48, 49, 70, 77, 86, 117, 141, 162, 167, 172, 181, 183},
          {48, 70, 77, 83, 145, 150, 162, 172, 174, 177, 181, 183},
          {48, 49, 69, 70, 83, 86, 141, 145, 167, 177},
          {48, 49, 69, 83, 84, 150, 162, 167, 174, 175, 180, 183},
          {48, 69, 84, 150, 162, 167, 168, 172, 174, 175, 182},
          {48, 70, 77, 83, 149, 167, 172, 174, 175, 180, 183},
          {48, 74, 83, 84, 86, 141, 142, 145, 147, 162, 175, 177},
          {48, 83, 86, 142, 147, 149, 167, 172, 177, 180, 181}}},
        {"Core2",
         5,
         {"Processor(_Total)\\% Processor Time",
          "Processor Performance\\Processor_0 Frequency",
          "Memory\\Committed Bytes",
          "System\\Context Switches/sec"},
         {{48, 49, 55, 83, 142, 150, 167, 175, 180, 181},
          {48, 49, 55, 74, 77, 84, 86, 145, 162, 172, 174, 181},
          {48, 69, 141, 142, 143, 145, 150, 159, 172, 180, 183},
          {48, 49, 55, 74, 77, 142, 147, 150, 167, 180, 183},
          {48, 49, 55, 77, 141, 143, 150, 162, 172, 175, 177, 181},
          {48, 49, 55, 74, 77, 142, 167, 172, 174, 175, 181, 183},
          {48, 84, 86, 141, 142, 145, 147, 172, 182, 183},
          {48, 55, 74, 84, 86, 91, 142, 143, 149, 174, 175, 180},
          {48, 55, 83, 86, 91, 142, 162, 167, 172, 174, 175, 182},
          {48, 55, 74, 83, 86, 147, 150, 162, 167, 172, 177, 182},
          {48, 49, 55, 74, 77, 84, 141, 145, 159, 181, 182, 183},
          {48, 55, 77, 84, 91, 145, 147, 149, 150, 162, 172, 183}}},
        {"Athlon",
         5,
         {"Processor(_Total)\\% Processor Time",
          "Processor Performance\\Processor_0 Frequency",
          "Memory\\Committed Bytes"},
         {{48, 49, 55, 86, 141, 147, 150, 162, 167, 172, 174, 177},
          {48, 51, 55, 74, 117, 149, 150, 167, 174, 175, 182, 183},
          {48, 83, 147, 150, 159, 162, 167, 172, 174, 175, 177},
          {48, 49, 55, 74, 83, 142, 149, 172, 174, 177, 178},
          {48, 49, 55, 84, 141, 142, 150, 167, 172, 181, 183},
          {48, 49, 55, 70, 74, 83, 84, 145, 150, 167, 172, 182},
          {48, 49, 77, 143, 147, 159, 162, 167, 175, 180, 183},
          {48, 49, 55, 74, 141, 142, 145, 150, 172, 180, 183},
          {48, 49, 51, 55, 77, 84, 86, 145, 150, 174, 177, 183},
          {48, 55, 74, 141, 142, 145, 147, 177, 180, 182, 183},
          {48, 55, 74, 77, 83, 86, 141, 143, 159, 167, 177, 183},
          {48, 49, 55, 74, 117, 159, 177, 180, 182}}},
        {"Opteron",
         5,
         {"Processor(_Total)\\% Processor Time",
          "Processor Performance\\Processor_0 Frequency"},
         {{11, 29, 67, 69, 91, 125, 132, 145, 159, 178, 183},
          {5, 17, 35, 41, 47, 48, 49, 55, 77, 86, 159, 172},
          {11, 17, 47, 48, 49, 51, 55, 74, 77, 167, 168, 183},
          {5, 17, 29, 48, 49, 55, 86, 91, 146, 162, 174, 181},
          {41, 48, 49, 55, 77, 91, 117, 125, 142, 172, 178, 181},
          {35, 48, 49, 55, 86, 91, 142, 145, 159, 177, 183},
          {5, 11, 29, 35, 48, 55, 83, 142, 162, 172},
          {35, 41, 48, 49, 55, 84, 149, 172, 174, 175, 181, 182},
          {35, 47, 74, 77, 83, 86, 91, 117, 145, 172, 178},
          {41, 48, 49, 55, 91, 145, 159, 167, 172, 174, 181, 183},
          {23, 29, 35, 48, 74, 142, 162, 167, 174, 177, 182},
          {5, 17, 29, 48, 55, 77, 117, 141, 146, 178, 180, 182}}},
        {"XeonSATA",
         5,
         {"Processor(_Total)\\% Processor Time",
          "Processor Performance\\Processor_0 Frequency",
          "Process(_Total)\\IO Data Bytes/sec"},
         {{17, 41, 47, 48, 49, 69, 77, 117, 125, 142, 159, 172},
          {5, 17, 29, 35, 48, 49, 55, 83, 96, 159, 162},
          {17, 48, 49, 51, 55, 83, 84, 86, 141, 167, 182, 183},
          {5, 29, 41, 48, 49, 83, 96, 146, 149, 172},
          {5, 17, 35, 47, 48, 69, 117, 125, 142, 159, 172},
          {5, 11, 29, 47, 48, 49, 55, 96, 101, 159, 181},
          {5, 11, 35, 41, 48, 49, 77, 83, 168, 174},
          {29, 35, 48, 55, 77, 91, 150, 174, 175, 180, 182},
          {5, 23, 49, 55, 84, 117, 121, 125, 142, 159, 162, 172},
          {23, 41, 47, 48, 49, 55, 101, 106, 145, 159, 167, 181},
          {5, 17, 23, 29, 48, 49, 51, 55, 142, 159, 162, 172},
          {5, 29, 35, 48, 55, 77, 83, 149, 159, 167, 172, 175}}},
        {"XeonSAS",
         5,
         {"Processor(_Total)\\% Processor Time",
          "Processor Performance\\Processor_0 Frequency",
          "System\\Context Switches/sec"},
         {{11, 23, 29, 41, 47, 67, 117, 125, 145, 172, 181},
          {48, 49, 55, 77, 84, 145, 159, 172, 177, 181, 182, 183},
          {29, 35, 47, 48, 51, 55, 77, 145, 150, 172, 175, 180},
          {5, 29, 41, 48, 49, 67, 83, 94, 141, 177, 180},
          {5, 17, 35, 48, 49, 69, 77, 117, 125, 159, 172},
          {11, 17, 41, 48, 55, 77, 159, 167, 172, 177, 181, 182},
          {5, 17, 35, 48, 49, 55, 83, 84, 145, 150, 174, 183},
          {11, 23, 35, 48, 55, 77, 83, 94, 177, 180, 181, 183},
          {11, 17, 47, 67, 69, 74, 94, 125, 159, 172},
          {11, 23, 35, 47, 48, 49, 55, 83, 159, 172, 183},
          {17, 47, 48, 51, 55, 77, 83, 167, 175, 177, 180},
          {23, 35, 48, 55, 83, 84, 117, 146, 149, 162, 180, 183}}}
    };
    std::string actualTable;
    for (MachineClass mc : allMachineClasses()) {
        CampaignConfig config;
        config.numMachines = 3;
        config.runsPerWorkload = 2;
        config.run.durationScale = 0.05;
        config.seed = 2012;
        const ClusterCampaign campaign = runClusterCampaign(mc, config);
        const std::string platform = machineClassName(mc);
        PinnedSelection actual{platform, campaign.selection.finalThreshold,
                               campaign.selection.selected, {}};
        for (const auto &record : campaign.selection.perMachine) {
            std::vector<size_t> slice;
            for (const auto &name : record.lassoSelected)
                slice.push_back(campaign.data.featureIndex(name));
            actual.lassoSelected.push_back(slice);
        }
        actualTable += pinSource(actual);

        const auto pin = std::find_if(
            expected.begin(), expected.end(),
            [&](const PinnedSelection &p) { return p.platform == platform; });
        if (pin == expected.end()) {
            ADD_FAILURE() << "no pin for " << platform;
            continue;
        }
        EXPECT_EQ(actual.selected, pin->selected) << platform;
        EXPECT_EQ(actual.finalThreshold, pin->finalThreshold) << platform;
        EXPECT_EQ(actual.lassoSelected, pin->lassoSelected) << platform;
    }
    if (HasFailure())
        std::cerr << "selection now:\n" << actualTable;
}

} // namespace
} // namespace chaos
