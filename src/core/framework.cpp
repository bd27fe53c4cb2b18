#include "core/framework.hpp"

#include "util/logging.hpp"
#include "util/result.hpp"

namespace chaos {

ClusterCampaign
collectClusterData(MachineClass mc, const CampaignConfig &config)
{
    raiseIf(config.runsPerWorkload == 0,
            "campaign needs at least one run per workload");
    ClusterCampaign campaign;
    campaign.machineClass = mc;
    campaign.cluster = std::make_unique<Cluster>(Cluster::homogeneous(
        mc, config.numMachines, config.seed ^ (static_cast<uint64_t>(mc)
                                               << 32)));
    campaign.runs = runStandardCampaign(
        *campaign.cluster, config.runsPerWorkload,
        config.seed + static_cast<uint64_t>(mc) * 977, config.run);
    campaign.data = Dataset::fromRunResults(campaign.runs);
    campaign.envelopes =
        envelopesFromSpec(machineSpecFor(mc), config.numMachines);
    return campaign;
}

ClusterCampaign
runClusterCampaign(MachineClass mc, const CampaignConfig &config)
{
    ClusterCampaign campaign = collectClusterData(mc, config);
    Rng rng(config.seed ^ 0xfeedfaceULL);
    campaign.selection = selectClusterFeatures(
        campaign.data, config.featureSelection, rng);
    inform("cluster " + machineClassName(mc) + ": selected " +
           std::to_string(campaign.selection.selected.size()) +
           " features (threshold " +
           std::to_string(campaign.selection.finalThreshold) + ")");
    return campaign;
}

MachinePowerModel
fitDefaultModel(const ClusterCampaign &campaign,
                const CampaignConfig &config)
{
    raiseIf(campaign.selection.selected.empty(),
            "fitDefaultModel: campaign has no feature selection");
    const FeatureSet features = clusterFeatureSet(campaign.selection);
    return MachinePowerModel::fit(campaign.data, features,
                                  ModelType::Quadratic,
                                  config.evaluation.mars);
}

} // namespace chaos
