/**
 * @file
 * End-to-end CHAOS framework entry points: collect instrumented
 * cluster traces, run Algorithm 1, fit models, and hand back
 * deployable artifacts. This is the automated pipeline the paper
 * describes as runnable during a cluster's burn-in/characterization
 * phase ("training and model building requires up to 2 hours").
 */
#ifndef CHAOS_CORE_FRAMEWORK_HPP
#define CHAOS_CORE_FRAMEWORK_HPP

#include <memory>

#include "core/cluster_model.hpp"
#include "core/feature_selection.hpp"
#include "core/sweep.hpp"
#include "sim/cluster.hpp"
#include "workloads/runner.hpp"

namespace chaos {

/** Knobs for a full data-collection + modeling campaign. */
struct CampaignConfig
{
    size_t numMachines = 5;         ///< Paper: 5-machine clusters.
    size_t runsPerWorkload = 5;     ///< Paper: 5 runs per workload.
    uint64_t seed = 2012;           ///< Base seed for everything.
    RunConfig run;                  ///< Workload run knobs.
    FeatureSelectionConfig featureSelection;  ///< Algorithm 1 knobs.
    EvaluationConfig evaluation;    ///< CV protocol knobs.
};

/** Everything produced for one cluster. */
struct ClusterCampaign
{
    MachineClass machineClass = MachineClass::Atom;
    std::unique_ptr<Cluster> cluster;   ///< The simulated machines.
    std::vector<RunResult> runs;        ///< Raw instrumented runs.
    Dataset data;                       ///< Flattened dataset.
    FeatureSelectionResult selection;   ///< Algorithm 1 output.
    EnvelopeMap envelopes;              ///< DRE denominators.
};

/**
 * Refuse a campaign that cannot produce a dataset (no machines, or no
 * runs per workload) by raising RecoverableError.
 */
void validateCampaign(const CampaignConfig &config);

/**
 * Collect traces for one homogeneous cluster: build the cluster, run
 * every standard workload runsPerWorkload times, and flatten the
 * logs. Feature selection is NOT run (see runClusterCampaign).
 * Raises RecoverableError where validateCampaign() does.
 */
ClusterCampaign collectClusterData(MachineClass mc,
                                   const CampaignConfig &config);

/**
 * Full campaign for one cluster: collectClusterData() plus
 * Algorithm 1 feature selection.
 */
ClusterCampaign runClusterCampaign(MachineClass mc,
                                   const CampaignConfig &config);

/**
 * Fit a deployable machine model from a finished campaign using the
 * technique/feature-set pair that the paper finds strongest overall
 * (quadratic on the cluster-specific set).
 */
MachinePowerModel fitDefaultModel(const ClusterCampaign &campaign,
                                  const CampaignConfig &config);

} // namespace chaos

#endif // CHAOS_CORE_FRAMEWORK_HPP
