/**
 * @file
 * The three workloads. Each runs in its own process, pins the
 * util/parallel pool, repeats its set-up kSetupRepeats times, measures
 * for the requested seconds, checks its outputs and fills one Report.
 * With Options::traced it also records spans around its calls into
 * the library and reports the per-layer metrics.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "fixtures.hpp"

namespace perfbench {

/** Wire bytes in -> watts out over loopback TCP. */
Report runWireFleet(const Options &opts);

/** 1,024-machine in-process fleet replayed in lockstep. */
Report runReplayFleet(const Options &opts);

/** Collected trace in -> cross-validated model out. */
Report runTrainCluster(const Options &opts);

/**
 * Per-layer metric names every traced run reports, with units. A
 * workload that never calls into a layer reports 0 for it.
 */
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
