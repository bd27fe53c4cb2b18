/**
 * @file
 * Tests for the streaming fleet server: exact agreement with a serial
 * estimator, threaded drain accounting, the drop-oldest backpressure
 * path, snapshots, and model hot-swap under an active producer.
 */
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "serve_support.hpp"

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/stage_metrics.hpp"
#include "util/parallel.hpp"

namespace chaos::serve {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

TEST(FleetServer, DrainOnceMatchesSerialEstimator)
{
    FleetServerConfig config;
    config.numShards = 2;
    FleetServer server(config);
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 3; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(7)));
    }

    // The reference: one serial estimator per machine, fed the exact
    // same rows in the same per-machine order.
    std::vector<OnlinePowerEstimator> serial;
    for (int m = 0; m < 3; ++m)
        serial.emplace_back(makeTestModel(7));

    for (int t = 0; t < 40; ++t) {
        for (int m = 0; m < 3; ++m) {
            const std::vector<double> row =
                catalogRow(t * 2.0 + m, 100.0 - t - m);
            const double metered = 25.0 + 0.2 * t;
            server.submitTo(*entries[m], std::vector<double>(row),
                            metered);
            serial[m].estimateWithReference(row, metered);
        }
    }
    while (server.drainOnce() > 0) {
    }

    EXPECT_EQ(server.submitted(), 120u);
    EXPECT_EQ(server.processed(), 120u);
    EXPECT_EQ(server.dropped(), 0u);
    for (int m = 0; m < 3; ++m) {
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            // Bitwise agreement: the served path runs each machine's
            // samples serially in arrival order.
            EXPECT_EQ(e.lastEstimateW(), serial[m].lastEstimateW());
            EXPECT_EQ(e.meanEstimateW(), serial[m].meanEstimateW());
            EXPECT_EQ(e.samples(), serial[m].samples());
            EXPECT_EQ(e.residuals().mean(),
                      serial[m].residuals().mean());
        });
    }
}

TEST(FleetServer, ThreadedDrainProcessesEverySample)
{
    setGlobalThreadCount(2);
    FleetServer server;
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 4; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(11)));
    }
    server.start();

    const size_t perProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < perProducer; ++i) {
                server.submitTo(*entries[p],
                                catalogRow(i % 100, p * 10.0));
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    server.waitIdle();
    server.stop();
    setGlobalThreadCount(1);

    EXPECT_EQ(server.submitted(), 4 * perProducer);
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());
    // Capacity (4 shards x 8192) far exceeds the burst: no drops.
    EXPECT_EQ(server.dropped(), 0u);
    for (int m = 0; m < 4; ++m) {
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            EXPECT_EQ(e.samples(), perProducer);
        });
    }
}

TEST(FleetServer, ConcurrentDrainersNeverAliasScratch)
{
    // Multiple threads calling drainOnce() concurrently with live
    // producers: drainMu must serialize the passes so the shared
    // drain scratch (batch, grouping, views, watts) and the
    // estimators' member scratch (batchRows, rowScratch) are never
    // aliased by two passes at once. Run under TSan (tier-1's
    // CHAOS_SANITIZE=thread stage) this is the aliasing proof; in a
    // plain build it still checks exact sample accounting.
    setGlobalThreadCount(2);
    FleetServer server;
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 3; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(5)));
    }

    const size_t perProducer = 3000;
    std::atomic<bool> producing{true};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < perProducer; ++i) {
                server.submitTo(*entries[(p + i) % 3],
                                catalogRow(i % 100, p * 10.0));
            }
        });
    }
    std::vector<std::thread> drainers;
    for (int d = 0; d < 3; ++d) {
        drainers.emplace_back([&] {
            while (producing.load()) {
                if (server.drainOnce() == 0)
                    std::this_thread::yield();
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    producing.store(false);
    for (auto &drainer : drainers)
        drainer.join();
    while (server.drainOnce() > 0) {
    }
    setGlobalThreadCount(1);

    EXPECT_EQ(server.submitted(), 2 * perProducer);
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());
    EXPECT_EQ(server.dropped(), 0u);
    uint64_t perMachine = 0;
    for (int m = 0; m < 3; ++m) {
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            perMachine += e.samples();
        });
    }
    EXPECT_EQ(perMachine, 2 * perProducer);
}

TEST(FleetServer, DropOldestEngagesAndIsCounted)
{
    obs::EventLog::instance().clear();
    FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = 4;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(3));

    // No drainer running: pushes 5..10 evict the oldest each time.
    for (int i = 0; i < 10; ++i)
        server.submitTo(entry, catalogRow(i, i));
    EXPECT_EQ(server.submitted(), 10u);
    EXPECT_EQ(server.dropped(), 6u);

    while (server.drainOnce() > 0) {
    }
    EXPECT_EQ(server.processed(), 4u);
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());

    // One backpressure event for the whole saturation episode.
    size_t backpressureEvents = 0;
    for (const obs::Event &event :
         obs::EventLog::instance().snapshot()) {
        if (event.kind == obs::EventKind::Backpressure) {
            ++backpressureEvents;
            EXPECT_EQ(event.source, "m0");
        }
    }
    EXPECT_EQ(backpressureEvents, 1u);

    const FleetSnapshot snap = server.snapshot();
    EXPECT_EQ(snap.samplesDropped, 6u);
    EXPECT_EQ(snap.samplesProcessed, 4u);
}

/**
 * Backpressure loss is attributed to the machine whose sample was
 * evicted, and the per-machine counts surface in fleet snapshots —
 * so "who lost telemetry" is answerable, not just "how much".
 */
TEST(FleetServer, DropCountsAreAttributedPerMachine)
{
    FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = 4;
    FleetServer server(config);
    MachineEntry &first = server.addMachine("m0", makeTestModel(3));
    MachineEntry &second = server.addMachine("m1", makeTestModel(3));

    // No drainer: 3 m0 samples then 7 m1 samples through a 4-deep
    // queue evict m0's three and m1's first three, oldest first.
    for (int i = 0; i < 3; ++i)
        server.submitTo(first, catalogRow(i, i));
    for (int i = 0; i < 7; ++i)
        server.submitTo(second, catalogRow(i, i));
    EXPECT_EQ(server.dropped(), 6u);
    EXPECT_EQ(first.droppedSamples(), 3u);
    EXPECT_EQ(second.droppedSamples(), 3u);

    while (server.drainOnce() > 0) {
    }
    const FleetSnapshot snap = server.snapshot();
    ASSERT_EQ(snap.machines.size(), 2u);
    for (const MachineSnapshot &machine : snap.machines) {
        EXPECT_EQ(machine.dropped, 3u) << machine.id;
    }
    EXPECT_EQ(snap.samplesDropped, 6u);
}

TEST(FleetServer, OfferDrainsForALaggingDrainerInsteadOfRefusing)
{
    // A 4-deep queue behind a drainer that sleeps whenever it finds
    // the queue empty: a tight producer fills it at once. offer() then
    // runs a drain pass on the producer's thread, so one producer is
    // never refused, and every sample is evaluated exactly once.
    FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = 4;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(3));
    server.start();
    const std::vector<double> row = catalogRow(5.0, 10.0);
    const std::size_t samples = 2000;
    std::size_t refused = 0;
    for (std::size_t i = 0; i < samples; ++i)
        refused += server.offer(entry, row.data(), row.size()) ? 0 : 1;
    server.stop();
    EXPECT_EQ(refused, 0u);
    EXPECT_EQ(server.submitted(), samples);
    EXPECT_EQ(server.processed(), samples);
    EXPECT_EQ(server.dropped(), 0u);
    EXPECT_EQ(server.snapshot().machines.at(0).samples, samples);
}

TEST(FleetServer, SubmitToUnknownMachineRaises)
{
    FleetServer server;
    server.addMachine("known", makeTestModel(5));
    EXPECT_RAISES(server.submit("ghost", catalogRow(1, 2)),
                  "unknown machine id 'ghost'");
}

TEST(FleetServer, SnapshotAggregatesFleet)
{
    FleetServer server;
    MachineEntry &a = server.addMachine("a", makeTestModel(5, 25.0));
    MachineEntry &b = server.addMachine("b", makeTestModel(5, 80.0));
    server.submitTo(a, catalogRow(50, 50));
    server.submitTo(b, catalogRow(50, 50));
    while (server.drainOnce() > 0) {
    }

    const FleetSnapshot snap = server.snapshot();
    ASSERT_EQ(snap.machines.size(), 2u);
    EXPECT_EQ(snap.machines[0].id, "a");
    EXPECT_EQ(snap.machines[1].id, "b");
    EXPECT_DOUBLE_EQ(snap.clusterW, snap.machines[0].watts +
                                        snap.machines[1].watts);
    EXPECT_GT(snap.machines[1].watts, snap.machines[0].watts + 30.0);
    EXPECT_EQ(snap.healthy, 2u);
    EXPECT_EQ(snap.degraded + snap.stale + snap.lost, 0u);
    EXPECT_EQ(snap.samplesProcessed, 2u);

    // Sequence numbers advance per snapshot; JSON stays well-formed.
    const FleetSnapshot next = server.snapshot();
    EXPECT_EQ(next.seq, snap.seq + 1);
    EXPECT_FALSE(snap.toJson().empty());
    EXPECT_EQ(snap.toJson().front(), '{');
    EXPECT_EQ(snap.toJson().back(), '}');
}

TEST(FleetServer, PeriodicSnapshotsEveryNSamples)
{
    FleetServerConfig config;
    config.snapshotEverySamples = 10;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(9));

    size_t callbacks = 0;
    server.onSnapshot([&](const FleetSnapshot &) { ++callbacks; });
    for (int i = 0; i < 35; ++i)
        server.submitTo(entry, catalogRow(i, i));
    while (server.drainOnce() > 0) {
    }

    EXPECT_EQ(server.snapshots().size(), 3u);
    EXPECT_EQ(callbacks, 3u);
}

TEST(FleetServer, HotSwapUnderActiveProducerLosesNothing)
{
    setGlobalThreadCount(2);
    FleetServer server;
    MachineEntry &entry =
        server.addMachine("m0", makeTestModel(13, 25.0));
    server.start();

    const std::vector<double> row = catalogRow(50.0, 50.0);
    std::atomic<bool> swapped{false};
    std::thread producer([&] {
        for (int i = 0; i < 6000; ++i) {
            server.submitTo(entry, std::vector<double>(row));
            if (i == 3000) {
                // Swap mid-stream, while the drainer is active.
                server.swapModel("m0", makeTestModel(13, 100.0));
                swapped.store(true);
            }
        }
    });
    producer.join();
    server.waitIdle();
    server.stop();
    setGlobalThreadCount(1);

    ASSERT_TRUE(swapped.load());
    // Not a sample dropped or duplicated across the swap...
    EXPECT_EQ(server.submitted(), 6000u);
    EXPECT_EQ(server.processed(), 6000u);
    EXPECT_EQ(server.dropped(), 0u);
    entry.withEstimator([&](OnlinePowerEstimator &e) {
        EXPECT_EQ(e.samples(), 6000u);
        // ...and the new model is what serves afterwards: the last
        // estimate reflects the ~75 W heavier swapped-in model.
        EXPECT_GT(e.lastEstimateW(), 90.0);
    });
}

TEST(FleetServer, StopFlushesPendingSamples)
{
    FleetServer server;
    MachineEntry &entry = server.addMachine("m0", makeTestModel(17));
    server.start();
    for (int i = 0; i < 500; ++i)
        server.submitTo(entry, catalogRow(i % 100, 50));
    // stop() without waitIdle(): the flush must still account for
    // every submitted sample.
    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());
}

TEST(FleetServer, StageHistogramsTrackDrainedSamples)
{
    // Stage histograms are process-global, so assert on deltas.
    StageMetrics &stages = StageMetrics::get();
    const std::uint64_t wait0 = stages.queueWaitUs.count();
    const std::uint64_t e2e0 = stages.e2eUs.count();
    const std::uint64_t batch0 = stages.drainBatchUs.count();
    const std::uint64_t predict0 = stages.predictUs.count();

    setStageTracingEnabled(true);
    FleetServerConfig config;
    config.numShards = 1;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(5));
    for (int t = 0; t < 32; ++t)
        server.submitTo(entry, catalogRow(t * 1.0, 50.0), 25.0);
    while (server.drainOnce() > 0) {
    }

    // Every drained sample lands one queue-wait and one end-to-end
    // observation; batch/predict count once per drain pass.
    EXPECT_EQ(stages.queueWaitUs.count() - wait0, 32u);
    EXPECT_EQ(stages.e2eUs.count() - e2e0, 32u);
    EXPECT_GT(stages.drainBatchUs.count(), batch0);
    EXPECT_GT(stages.predictUs.count(), predict0);

    // The JSON surface always parses and exposes the five stages.
    obs::JsonValue latency;
    ASSERT_TRUE(obs::jsonParse(stageLatencyJson(), latency));
    for (const char *key : {"decode_us", "queue_wait_us",
                            "drain_batch_us", "predict_us", "e2e_us"}) {
        const obs::JsonValue *stage = latency.find(key);
        ASSERT_NE(stage, nullptr) << key;
        for (const char *field : {"p50", "p99", "count"})
            EXPECT_NE(stage->find(field), nullptr) << field;
    }

    // With tracing off, samples are unstamped and drained without
    // touching any stage histogram.
    setStageTracingEnabled(false);
    const std::uint64_t waitOff = stages.queueWaitUs.count();
    const std::uint64_t e2eOff = stages.e2eUs.count();
    const std::uint64_t batchOff = stages.drainBatchUs.count();
    for (int t = 0; t < 16; ++t)
        server.submitTo(entry, catalogRow(t * 1.0, 50.0), 25.0);
    while (server.drainOnce() > 0) {
    }
    setStageTracingEnabled(true);
    EXPECT_EQ(stages.queueWaitUs.count(), waitOff);
    EXPECT_EQ(stages.e2eUs.count(), e2eOff);
    EXPECT_EQ(stages.drainBatchUs.count(), batchOff);
    EXPECT_EQ(server.processed(), 48u);
}

} // namespace
} // namespace chaos::serve
