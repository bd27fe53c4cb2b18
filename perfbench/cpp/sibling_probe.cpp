#include "sibling_probe.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "spans.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

/** Probe size: three 64x64 double matrices, 96 KiB, in L2. */
constexpr std::size_t kProbeN = 64;
/** Time between readings. */
constexpr long kProbePeriodNs = 2'000'000;
/** Probes per vCPU when the run starts. */
constexpr int kCalibrationRounds = 3;
/** settle() looks for another vCPU when the latest reading is above
 *  this multiple of the fastest one so far. */
constexpr double kMoveRatio = 1.25;
/** Least time on a vCPU before settle() moves the thread again. */
constexpr std::uint64_t kMinStayNs = 100'000'000;

bool
pinCurrentThread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

} // namespace

SiblingProbe::SiblingProbe()
    : a_(kProbeN * kProbeN, 1.0001), b_(kProbeN * kProbeN, 0.9999),
      mainC_(kProbeN * kProbeN, 0.0),
      floorMs_(std::numeric_limits<double>::infinity())
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
        }
    }
    for (int round = 0; round < kCalibrationRounds; ++round) {
        for (int cpu : cpus_) {
            if (pinCurrentThread(cpu))
                floorMs_ = std::min(floorMs_, runKernel(mainC_));
        }
    }
    // Start on the vCPU that reads fastest now.
    lastMs_ = std::numeric_limits<double>::infinity();
    settle();
    moves_ = 0;
    thread_ = std::thread([this] { probeLoop(); });
}

SiblingProbe::~SiblingProbe()
{
    stop_ = true;
    thread_.join();
}

double
SiblingProbe::runKernel(std::vector<double> &c) const
{
    const std::uint64_t start = nowNs();
    for (std::size_t i = 0; i < kProbeN; ++i) {
        for (std::size_t k = 0; k < kProbeN; ++k) {
            const double a = a_[i * kProbeN + k];
            for (std::size_t j = 0; j < kProbeN; ++j)
                c[i * kProbeN + j] += a * b_[k * kProbeN + j];
        }
    }
    const double ms = static_cast<double>(nowNs() - start) / 1e6;
    // Keep the products observable so the kernel is not optimised away.
    if (c[0] == std::numeric_limits<double>::infinity())
        c[0] = 0.0;
    return ms;
}

void
SiblingProbe::probeLoop()
{
    std::vector<double> c(kProbeN * kProbeN, 0.0);
    int pinned = -1;
    while (!stop_) {
        const int cpu = cpu_.load();
        if (cpu != pinned && cpu >= 0 && pinCurrentThread(cpu))
            pinned = cpu;
        const std::uint64_t at = nowNs();
        const double ms = runKernel(c);
        lastMs_ = ms;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            readings_.atNs.push_back(at);
            readings_.ms.push_back(ms);
        }
        timespec pause{0, kProbePeriodNs};
        nanosleep(&pause, nullptr);
    }
}

void
SiblingProbe::settle()
{
    const std::uint64_t now = nowNs();
    if (cpus_.size() < 2 || lastMs_ <= kMoveRatio * floorMs_ ||
        now - stayedSinceNs_ < kMinStayNs)
        return;
    int pick = cpu_.load();
    double best = std::numeric_limits<double>::infinity();
    for (int cpu : cpus_) {
        if (!pinCurrentThread(cpu))
            continue;
        const double ms = runKernel(mainC_);
        floorMs_ = std::min(floorMs_, ms);
        if (ms < best) {
            best = ms;
            pick = cpu;
        }
    }
    if (pick >= 0)
        pinCurrentThread(pick);
    if (pick != cpu_.load()) {
        ++moves_;
        cpu_ = pick;
    }
    lastMs_ = best;
    stayedSinceNs_ = nowNs();
}

ProbeReadings
SiblingProbe::readings() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ProbeReadings out = readings_;
    out.floorMs = out.ms.empty()
                      ? floorMs_
                      : *std::min_element(out.ms.begin(), out.ms.end());
    out.thresholdMs = busyThresholdMs(out.ms);
    std::vector<double> idle;
    for (double ms : out.ms) {
        if (ms <= out.thresholdMs)
            idle.push_back(ms);
    }
    out.idleMs = median(std::move(idle));
    return out;
}

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
busyThresholdMs(std::vector<double> ms)
{
    if (ms.size() < 2)
        return std::numeric_limits<double>::quiet_NaN();
    for (double &v : ms)
        v = std::log(v);
    std::sort(ms.begin(), ms.end());
    const double n = static_cast<double>(ms.size());
    double total = 0.0;
    for (double v : ms)
        total += v;
    double below = 0.0, best = -1.0, split = ms.back();
    for (std::size_t i = 1; i < ms.size(); ++i) {
        below += ms[i - 1];
        const double k = static_cast<double>(i);
        const double meanBelow = below / k;
        const double meanAbove = (total - below) / (n - k);
        const double between = k * (n - k) * (meanBelow - meanAbove) *
                               (meanBelow - meanAbove);
        if (between > best && ms[i] > ms[i - 1]) {
            best = between;
            split = (ms[i - 1] + ms[i]) / 2.0;
        }
    }
    return std::exp(split);
}

double
busyShare(const ProbeReadings &r, std::uint64_t startNs, std::uint64_t endNs)
{
    const std::size_t n = std::min(r.atNs.size(), r.ms.size());
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    auto busy = [&](std::size_t i) {
        return r.ms[i] > r.thresholdMs ? 1.0 : 0.0;
    };
    const auto begin = r.atNs.begin();
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(begin, begin + static_cast<std::ptrdiff_t>(n), startNs) -
        begin);
    const std::size_t hi = static_cast<std::size_t>(
        std::upper_bound(begin, begin + static_cast<std::ptrdiff_t>(n), endNs) -
        begin);
    if (hi > lo) {
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            sum += busy(i);
        return sum / static_cast<double>(hi - lo);
    }
    // No reading inside: the nearest ones on either side decide.
    if (lo == 0)
        return busy(0);
    if (lo == n)
        return busy(n - 1);
    return (busy(lo - 1) + busy(lo)) / 2.0;
}

double
referenceScale(const ProbeReadings &r)
{
    return r.idleMs > 0.0 ? kReferenceProbeMs / r.idleMs : 1.0;
}

Undisturbed
undisturbedTimes(const std::vector<double> &ms, const std::vector<double> &busy)
{
    Undisturbed out;
    out.ms = ms;
    double n = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < ms.size() && i < busy.size(); ++i) {
        if (std::isnan(busy[i]) || !(ms[i] > 0.0))
            continue;
        const double x = busy[i], y = 1.0 / ms[i];
        n += 1.0;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double varX = n > 0.0 ? sxx / n - (sx / n) * (sx / n) : 0.0;
    // Busy shares that barely vary cannot separate the two speeds.
    if (n < 3.0 || varX < 0.05 * 0.05)
        return out;
    const double slope = (sxy / n - (sx / n) * (sy / n)) / varX;
    const double intercept = sy / n - slope * sx / n;
    if (!(intercept > 0.0))
        return out;
    out.busySpeed = std::clamp((intercept + slope) / intercept, 0.4, 1.0);
    for (std::size_t i = 0; i < out.ms.size() && i < busy.size(); ++i) {
        if (!std::isnan(busy[i]))
            out.ms[i] *= 1.0 - busy[i] * (1.0 - out.busySpeed);
    }
    return out;
}

std::vector<double>
SetupTimes::seconds() const
{
    std::vector<double> out;
    for (std::uint64_t ns : cpuNs)
        out.push_back(static_cast<double>(ns) / 1e9);
    return out;
}

double
SetupTimes::undisturbedMedianS(const ProbeReadings &r, double busySpeed) const
{
    std::vector<double> out = seconds();
    for (std::size_t i = 0; i < out.size(); ++i) {
        const double b = busyShare(r, startNs[i], endNs[i]);
        if (!std::isnan(b))
            out[i] *= 1.0 - b * (1.0 - busySpeed);
    }
    return median(out);
}

} // namespace perfbench
