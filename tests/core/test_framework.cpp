/**
 * @file
 * End-to-end tests of the campaign framework.
 */
#include <set>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "campaign_fixture.hpp"

namespace chaos {
namespace {

using testing_support::atomCampaign;
using testing_support::core2Campaign;
using testing_support::quickCampaignConfig;

TEST(Framework, CampaignCollectsExpectedShape)
{
    const auto &campaign = core2Campaign();
    const auto config = quickCampaignConfig();

    EXPECT_EQ(campaign.machineClass, MachineClass::Core2);
    ASSERT_NE(campaign.cluster, nullptr);
    EXPECT_EQ(campaign.cluster->size(), config.numMachines);
    // 4 workloads x runsPerWorkload runs.
    EXPECT_EQ(campaign.runs.size(), 4 * config.runsPerWorkload);
    EXPECT_GT(campaign.data.numRows(), 1000u);
    EXPECT_EQ(campaign.envelopes.size(), config.numMachines);

    // All four workloads present in the dataset.
    std::set<std::string> names(campaign.data.workloadNames().begin(),
                                campaign.data.workloadNames().end());
    EXPECT_EQ(names.size(), 4u);
}

TEST(Framework, RunIdsAreDistinctAcrossCampaign)
{
    const auto &campaign = core2Campaign();
    std::set<int> run_ids;
    for (const auto &run : campaign.runs)
        EXPECT_TRUE(run_ids.insert(run.runId).second);
}

TEST(Framework, CollectWithoutSelectionLeavesSelectionEmpty)
{
    CampaignConfig config = quickCampaignConfig();
    config.runsPerWorkload = 1;
    config.run.durationScale = 0.1;
    const ClusterCampaign campaign =
        collectClusterData(MachineClass::Atom, config);
    EXPECT_TRUE(campaign.selection.selected.empty());
    EXPECT_GT(campaign.data.numRows(), 0u);
}

TEST(Framework, ZeroRunsPerWorkloadRaises)
{
    // A campaign without runs would flatten to a header-only dataset.
    CampaignConfig config = quickCampaignConfig();
    config.runsPerWorkload = 0;
    EXPECT_RAISES(collectClusterData(MachineClass::Atom, config),
                  "at least one run per workload");
}

TEST(Framework, DefaultModelDeploysAndPredictsSanely)
{
    const auto &campaign = core2Campaign();
    const MachinePowerModel model =
        fitDefaultModel(campaign, quickCampaignConfig());
    EXPECT_EQ(model.model().type(), ModelType::Quadratic);
    EXPECT_EQ(model.featureSet().counters,
              campaign.selection.selected);

    const MachineSpec spec = machineSpecFor(MachineClass::Core2);
    const double watts = model.predictFromCatalogRow(
        campaign.data.features().row(10));
    EXPECT_GT(watts, spec.idlePowerW - 5.0);
    EXPECT_LT(watts, spec.maxPowerW + 5.0);
}

TEST(Framework, DefaultModelWithoutSelectionRaises)
{
    CampaignConfig config = quickCampaignConfig();
    config.runsPerWorkload = 1;
    config.run.durationScale = 0.1;
    const ClusterCampaign campaign =
        collectClusterData(MachineClass::Atom, config);
    EXPECT_RAISES(fitDefaultModel(campaign, config),
                  "no feature selection");
}

TEST(Framework, AtomSelectsNoFrequencyCounter)
{
    // The Atom has no DVFS: its frequency counter is constant and
    // must not appear in the cluster feature set (paper Table II has
    // no frequency row for the Atom).
    const auto &selected = atomCampaign().selection.selected;
    for (const auto &name : selected)
        EXPECT_EQ(name.find("Frequency"), std::string::npos) << name;
}

TEST(Framework, DistinctSeedsProduceDistinctData)
{
    CampaignConfig a = quickCampaignConfig();
    a.runsPerWorkload = 1;
    a.run.durationScale = 0.1;
    CampaignConfig b = a;
    b.seed = a.seed + 1;

    const auto ca = collectClusterData(MachineClass::Atom, a);
    const auto cb = collectClusterData(MachineClass::Atom, b);
    ASSERT_GT(ca.data.numRows(), 10u);
    // Same machine count but different traces.
    bool differs = ca.data.numRows() != cb.data.numRows();
    if (!differs) {
        differs = ca.data.powerW()[5] != cb.data.powerW()[5];
    }
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace chaos
