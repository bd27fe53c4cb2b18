/**
 * @file
 * Tests of the benchmark's own measurement logic: latency from the
 * due time, matching evaluations back to sends, the correctness gates,
 * percentiles and span self time.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "sibling_probe.hpp"
#include "spans.hpp"
#include "timing.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kMs = 1'000'000;

TEST(LatencyFromDue, LateGeneratorStallIsChargedToSamplesBehindIt)
{
    // 1 kHz schedule; the generator stalls 5 ms before sample 3 and
    // then sends its backlog back to back. Each sample is evaluated
    // 0.1 ms after it went out.
    const PacedSchedule schedule{100 * kMs, 1000.0};
    ArrivalLog log(1);
    std::vector<std::uint64_t> due, sent;
    std::uint64_t clock = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
        const std::uint64_t d = schedule.dueNs(i);
        clock = std::max(clock, d);
        if (i == 3)
            clock = d + 5 * kMs;          // The stall.
        due.push_back(d);
        sent.push_back(clock);
        log.noteSent(0, d);
        log.noteEvaluated(0, clock + kMs / 10, 1.0);
        clock += kMs / 100;               // 10 us per send.
    }
    const std::vector<double> latency = log.latenciesMs();
    ASSERT_EQ(latency.size(), 10u);
    EXPECT_NEAR(latency[0], 0.1, 1e-9);
    EXPECT_NEAR(latency[2], 0.1, 1e-9);
    // Sample 3 waited out the stall, and samples 4.. queued behind it
    // pay what is left of it, minus the time they were due later.
    EXPECT_NEAR(latency[3], 5.1, 1e-9);
    EXPECT_NEAR(latency[4], 4.11, 1e-9);
    EXPECT_NEAR(latency[7], 1.14, 1e-9);
    // The backlog cleared by sample 8: back to the evaluation delay.
    EXPECT_NEAR(latency[9], 0.1, 1e-9);
    const std::vector<double> late = latenessMs(due, sent);
    EXPECT_NEAR(late[3], 5.0, 1e-9);
    EXPECT_NEAR(late[9], 0.0, 1e-9);
}

TEST(LatencyFromDue, ScheduleIsAbsolute)
{
    const PacedSchedule schedule{0, 20000.0};
    EXPECT_EQ(schedule.dueNs(0), 0u);
    EXPECT_EQ(schedule.dueNs(1), 50'000u);
    EXPECT_EQ(schedule.dueNs(20000), 1'000'000'000u);
}

TEST(ArrivalMatching, PairsPerMachineInArrivalOrder)
{
    // Two machines; evaluations of different machines interleave in
    // another order than the sends, but each machine's stay in order.
    ArrivalLog log(2);
    log.noteSent(0, 10);
    log.noteSent(1, 20);
    log.noteSent(0, 30);
    log.noteSent(1, 40);
    log.noteEvaluated(1, 25, 11.0);
    log.noteEvaluated(1, 45, 12.0);
    log.noteEvaluated(0, 50, 1.0);
    log.noteEvaluated(0, 60, 2.0);
    ASSERT_TRUE(log.complete());
    const std::vector<double> ms = log.latenciesMs();
    ASSERT_EQ(ms.size(), 4u);
    EXPECT_DOUBLE_EQ(ms[0], 40e-6); // Machine 0, sample 0: 50 - 10.
    EXPECT_DOUBLE_EQ(ms[1], 30e-6); // Machine 0, sample 1: 60 - 30.
    EXPECT_DOUBLE_EQ(ms[2], 5e-6);  // Machine 1, sample 0: 25 - 20.
    EXPECT_DOUBLE_EQ(ms[3], 5e-6);
    EXPECT_EQ(log.watts(0, 1), 2.0);
    EXPECT_EQ(log.watts(1, 0), 11.0);
}

TEST(ArrivalMatching, MissingOrExtraEvaluationIsIncomplete)
{
    ArrivalLog missing(2);
    missing.noteSent(0, 1);
    missing.noteSent(1, 2);
    missing.noteEvaluated(0, 3, 1.0);
    EXPECT_FALSE(missing.complete());

    ArrivalLog extra(1);
    extra.noteSent(0, 1);
    extra.noteEvaluated(0, 2, 1.0);
    extra.noteEvaluated(0, 3, 1.0);
    EXPECT_FALSE(extra.complete());
}

WireAccounting
cleanWire()
{
    WireAccounting a;
    a.sent = a.accepted = a.serverAccepted = a.processed = 1000;
    return a;
}

TEST(Gates, CleanWireAccountingPasses)
{
    EXPECT_EQ(failedGates(wireAccountingGates(cleanWire())), 0u);
}

TEST(Gates, ForgedWireAccountingMismatchTrips)
{
    WireAccounting leak = cleanWire();
    leak.accepted = 999; // One sample neither accepted nor rejected.
    leak.serverAccepted = 999;
    leak.processed = 999;
    EXPECT_GT(failedGates(wireAccountingGates(leak)), 0u);

    WireAccounting rejected = cleanWire();
    rejected.accepted = rejected.serverAccepted = rejected.processed = 990;
    rejected.rejected = 10;
    EXPECT_GT(failedGates(wireAccountingGates(rejected)), 0u);

    WireAccounting bad = cleanWire();
    bad.badFrames = 1;
    EXPECT_GT(failedGates(wireAccountingGates(bad)), 0u);

    WireAccounting dropped = cleanWire();
    dropped.processed = 999;
    dropped.dropped = 1;
    EXPECT_GT(failedGates(wireAccountingGates(dropped)), 0u);
}

TEST(Gates, DroppedReplaySampleTrips)
{
    ReplayAccounting clean{1024, 1024, 0, 1, 0};
    EXPECT_EQ(failedGates(replayAccountingGates(clean)), 0u);
    ReplayAccounting dropped{1024, 1023, 1, 1, 0};
    EXPECT_GT(failedGates(replayAccountingGates(dropped)), 0u);
    ReplayAccounting sum{1024, 1024, 0, 1, 1};
    EXPECT_GT(failedGates(replayAccountingGates(sum)), 0u);
}

TEST(Gates, RemediationMustHealStormedAndSpareClean)
{
    std::vector<Remediation> ok = {{"a", true, 1, 1, 0},
                                   {"b", false, 0, 0, 0}};
    EXPECT_EQ(failedGates(remediationGates(ok)), 0u);
    std::vector<Remediation> unhealed = {{"a", true, 1, 0, 1},
                                         {"b", false, 0, 0, 0}};
    EXPECT_GT(failedGates(remediationGates(unhealed)), 0u);
    std::vector<Remediation> falseAlarm = {{"a", true, 1, 1, 0},
                                           {"b", false, 1, 1, 0}};
    EXPECT_GT(failedGates(remediationGates(falseAlarm)), 0u);
    std::vector<Remediation> noStorm = {{"b", false, 0, 0, 0}};
    EXPECT_GT(failedGates(remediationGates(noStorm)), 0u);
}

TEST(Percentiles, InterpolateBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.9), 4.6);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(median({nan, 3.0, 1.0, nan}), 2.0);
}

TEST(Percentiles, BucketDeltas)
{
    const std::vector<double> bounds = {10, 20, 40};
    // 10 in [0,10), 30 in [10,20), none above.
    const std::vector<std::uint64_t> counts = {10, 30, 0, 0};
    EXPECT_DOUBLE_EQ(bucketPercentile(bounds, counts, 0.25), 10.0);
    EXPECT_DOUBLE_EQ(bucketPercentile(bounds, counts, 0.5), 13.333333333333334);
    EXPECT_TRUE(std::isnan(bucketPercentile(bounds, {0, 0, 0, 0}, 0.5)));
    EXPECT_DOUBLE_EQ(bucketPercentile(bounds, {0, 0, 0, 5}, 0.5), 40.0);
}

TEST(Windows, RatesKeepEveryDigitAndSkipSparseWindows)
{
    // Window 0: events every 10 ms; window 1: one event only.
    std::vector<std::uint64_t> events;
    for (std::uint64_t t = 0; t < 100; t += 10)
        events.push_back(t * kMs);
    events.push_back(150 * kMs);
    const std::vector<double> rates =
        windowRates(events, 0, 200 * kMs, 100 * kMs, 64.0);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 64.0 * 9 / 0.09);
    EXPECT_TRUE(std::isnan(rates[1]));
}

TEST(Windows, PercentilesPerWindowByTimeStamp)
{
    const std::vector<std::uint64_t> t = {1, 2, 3, 11, 12, 13, 21};
    const std::vector<double> v = {1, 2, 3, 10, 20, 30, 99};
    const std::vector<double> p50 = windowPercentiles(t, v, 0, 10, 0.5, 2);
    ASSERT_EQ(p50.size(), 3u);
    EXPECT_DOUBLE_EQ(p50[0], 2.0);
    EXPECT_DOUBLE_EQ(p50[1], 20.0);
    EXPECT_TRUE(std::isnan(p50[2])); // One value: below minCount.
}

TEST(Windows, QuietWindowsPreferTheThresholdThenTheLeastDisturbed)
{
    // Windows stolen by other guests read slow; the quiet ones decide.
    const std::vector<double> value = {1.0, 1.1, 9.0, 1.2, 8.0, 0.9};
    const std::vector<double> steal = {0.0, 1.0, 30.0, 0.5, 20.0, 0.0};
    const std::vector<std::size_t> quiet = quietWindows(steal, 1.0, 2);
    EXPECT_EQ(quiet, (std::vector<std::size_t>{0, 1, 3, 5}));
    EXPECT_DOUBLE_EQ(medianAt(value, quiet), 1.05);
    // Too few under the threshold: the least disturbed, in order.
    EXPECT_EQ(quietWindows(steal, 0.0, 3), (std::vector<std::size_t>{0, 3, 5}));
    // A window the measuring thread skipped counts as the worst.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(quietWindows({inf, nan, 5.0}, 1.0, 1),
              (std::vector<std::size_t>{2}));
    EXPECT_TRUE(std::isnan(medianAt({nan}, {0})));
}

TEST(SiblingProbe, BusyShareCountsBusyReadingsInsideTheUnit)
{
    ProbeReadings r;
    r.atNs = {0, 2 * kMs, 4 * kMs, 6 * kMs, 8 * kMs};
    r.ms = {0.10, 0.20, 0.10, 0.11, 0.20};
    r.floorMs = 0.10;
    r.thresholdMs = busyThresholdMs(r.ms);
    EXPECT_GT(r.thresholdMs, 0.11);
    EXPECT_LT(r.thresholdMs, 0.20);
    EXPECT_DOUBLE_EQ(busyShare(r, 0, 4 * kMs), 1.0 / 3.0);
    // No reading inside: the neighbours (both idle) decide.
    EXPECT_DOUBLE_EQ(busyShare(r, 4 * kMs + 1, 6 * kMs - 1), 0.0);
    EXPECT_DOUBLE_EQ(busyShare(r, 9 * kMs, 10 * kMs), 1.0);
    EXPECT_TRUE(std::isnan(busyShare(ProbeReadings{}, 0, 1)));
}

TEST(SiblingProbe, ThresholdSplitsTheIdleAndBusyLevelsWhereverTheyLie)
{
    // Idle near 0.12 ms and busy near 0.22 ms, then both 20% slower.
    std::vector<double> fast, slow;
    for (int i = 0; i < 30; ++i) {
        const double jitter = 0.002 * (i % 5);
        fast.push_back((i % 3 ? 0.12 : 0.22) + jitter);
        slow.push_back(1.2 * fast.back());
    }
    const double t = busyThresholdMs(fast);
    EXPECT_GT(t, 0.128);
    EXPECT_LT(t, 0.22);
    const double u = busyThresholdMs(slow);
    EXPECT_GT(u, 1.2 * 0.128);
    EXPECT_LT(u, 1.2 * 0.22);
    EXPECT_TRUE(std::isnan(busyThresholdMs({0.1})));
}

TEST(SiblingProbe, UndisturbedTimesUndoTheBusySiblingNotTheProgram)
{
    // W = 100 ms of work; at busy speed 0.5 a unit busy for share b
    // takes 100 / (1 - b / 2).
    const std::vector<double> busy = {0.0, 0.25, 0.5, 0.75, 1.0, 0.5};
    auto times = [&](double work) {
        std::vector<double> ms;
        for (double b : busy)
            ms.push_back(work / (1.0 - b * 0.5));
        return ms;
    };
    const Undisturbed fast = undisturbedTimes(times(100.0), busy);
    EXPECT_NEAR(fast.busySpeed, 0.5, 1e-9);
    for (double ms : fast.ms)
        EXPECT_NEAR(ms, 100.0, 1e-9);
    // A program twice as slow reads twice as slow, however busy.
    const Undisturbed slow = undisturbedTimes(times(200.0), busy);
    for (double ms : slow.ms)
        EXPECT_NEAR(ms, 200.0, 1e-9);
    // Shares that barely vary leave the times as measured.
    const Undisturbed flat =
        undisturbedTimes({100.0, 110.0, 90.0}, {0.5, 0.5, 0.5});
    EXPECT_EQ(flat.busySpeed, 1.0);
    EXPECT_EQ(flat.ms, (std::vector<double>{100.0, 110.0, 90.0}));
}

TEST(SiblingProbe, SetUpRepeatsUseTheRunsBusySpeed)
{
    ProbeReadings r;
    r.atNs = {1 * kMs, 11 * kMs, 21 * kMs};
    r.ms = {0.10, 0.20, 0.10};
    r.floorMs = 0.10;
    r.thresholdMs = 0.15;
    SetupTimes setup;
    setup.add(0, 10 * kMs, 10 * kMs);        // Idle: 10 ms as measured.
    setup.add(10 * kMs, 30 * kMs, 20 * kMs); // Half busy, speed 0.5: 15 ms.
    setup.add(20 * kMs, 28 * kMs, 8 * kMs);  // Idle: 8 ms.
    EXPECT_DOUBLE_EQ(setup.undisturbedMedianS(r, 0.5), 0.010);
    EXPECT_DOUBLE_EQ(setup.undisturbedMedianS(r, 1.0), 0.010);
    setup.add(30 * kMs, 50 * kMs, 20 * kMs); // After the last, idle, reading.
    EXPECT_DOUBLE_EQ(setup.undisturbedMedianS(r, 0.5), 0.0125);
}

TEST(SiblingProbe, ReadsWhileTheMeasuredThreadWorks)
{
    SiblingProbe probe;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    probe.settle();
    const ProbeReadings r = probe.readings();
    ASSERT_FALSE(r.ms.empty());
    EXPECT_GT(r.floorMs, 0.0);
    EXPECT_EQ(r.atNs.size(), r.ms.size());
}

TEST(Gates, LateGeneratorTripsThePacingGate)
{
    EXPECT_TRUE(pacingGate(0.05, 0.30, 0.5).ok);
    // The generator ran 0.2 ms behind: p90 would time the generator.
    const Gate late = pacingGate(0.20, 0.30, 0.5);
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.name, "wire.generator_kept_schedule");
    EXPECT_EQ(failedGates({late}), 1u);
    // A NaN lateness (no quiet window measured) fails too.
    EXPECT_FALSE(pacingGate(std::nan(""), 0.30, 0.5).ok);
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    clearSpans();
    setSpansEnabled(true);
    {
        Span outer("bench.outer");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            Span inner("serve.inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(4));
        }
    }
    setSpansEnabled(false);
    { Span ignored("serve.ignored"); }
    const std::vector<SpanRecord> spans = collectSpans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    const std::vector<ModuleTime> table = selfTimeByModule(spans);
    ASSERT_EQ(table.size(), 2u);
    for (const ModuleTime &m : table) {
        if (m.module == "bench") {
            EXPECT_GE(m.totalMs, 6.0);
            EXPECT_LT(m.selfMs, m.totalMs - 3.9);
        } else {
            EXPECT_EQ(m.module, "serve");
            EXPECT_DOUBLE_EQ(m.selfMs, m.totalMs);
        }
    }
    clearSpans();
}

} // namespace
} // namespace perfbench
