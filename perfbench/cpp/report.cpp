#include "report.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

namespace perfbench {

namespace {

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Full-precision JSON number; non-finite values become null. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out << std::setprecision(17) << v;
    return out.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? "," : "") + std::string("\"") + escape(m.name) +
               "\":{\"value\":" + number(m.value) + ",\"unit\":\"" +
               escape(m.unit) + "\"}";
    }
    return out + "}";
}

void
printMetrics(std::ostream &out, const char *title,
             const std::vector<Metric> &metrics)
{
    if (metrics.empty())
        return;
    out << title << "\n";
    for (const Metric &m : metrics) {
        out << "  " << std::left << std::setw(36) << m.name << std::right
            << std::setw(16) << std::setprecision(6) << m.value << " "
            << m.unit << "\n";
    }
}

} // namespace

ProcessTimes
processTimes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    ProcessTimes t;
    t.cpuSeconds = static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_utime.tv_usec) / 1e6 +
                   static_cast<double>(usage.ru_stime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
    t.wallSeconds = static_cast<double>(nowNs()) / 1e9;
    return t;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB.
}

HostCpu
hostCpu()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    HostCpu cpu;
    double field = 0.0;
    for (int i = 0; i < 8 && in >> field; ++i) {
        cpu.total += field;
        if (i == 7)
            cpu.steal = field;
    }
    return cpu;
}

double
stealPct(const HostCpu &from, const HostCpu &to)
{
    const double total = to.total - from.total;
    return total > 0.0 ? 100.0 * (to.steal - from.steal) / total : 0.0;
}

StealWindows::StealWindows(std::uint64_t startNs, std::uint64_t windowNs)
    : startNs_(startNs), windowNs_(windowNs)
{}

void
StealWindows::poll(std::uint64_t nowNs)
{
    // One reading per boundary passed. A poll that comes a whole window
    // late means the thread itself was stalled: the windows it skipped
    // count as infinitely dirty.
    if (nowNs < startNs_)
        return;
    const std::size_t boundaries = (nowNs - startNs_) / windowNs_ + 1;
    if (readings_.size() >= boundaries)
        return;
    const HostCpu now = hostCpu();
    HostCpu skipped = now;
    skipped.steal = std::numeric_limits<double>::infinity();
    readings_.resize(boundaries - 1, skipped);
    readings_.push_back(now);
}

std::vector<double>
StealWindows::stealPct() const
{
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < readings_.size(); ++i) {
        const bool skipped = std::isinf(readings_[i].steal) ||
                             std::isinf(readings_[i + 1].steal);
        out.push_back(skipped ? std::numeric_limits<double>::infinity()
                              : perfbench::stealPct(readings_[i],
                                                    readings_[i + 1]));
    }
    return out;
}

std::size_t
StealWindows::quietCount(double threshold) const
{
    std::size_t quiet = 0;
    for (double steal : stealPct())
        quiet += steal <= threshold;
    return quiet;
}

double
loadAverage1()
{
    std::ifstream in("/proc/loadavg");
    double load = std::numeric_limits<double>::quiet_NaN();
    in >> load;
    return load;
}

Report::Report(std::string workload, std::uint64_t seed, bool traced)
    : workload_(std::move(workload)), seed_(seed), traced_(traced)
{}

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit)
{
    endToEnd_.push_back({name, value, unit});
}

void
Report::perLayer(const std::string &name, double value,
                 const std::string &unit)
{
    perLayer_.push_back({name, value, unit});
}

void
Report::diagnostic(const std::string &name, double value,
                   const std::string &unit)
{
    diagnostics_.push_back({name, value, unit});
}

void
Report::host(const std::string &key, const std::string &value)
{
    host_.emplace_back(key, "\"" + escape(value) + "\"");
}

void
Report::host(const std::string &key, double value)
{
    host_.emplace_back(key, number(value));
}

void
Report::gate(Gate g)
{
    gates_.push_back(std::move(g));
}

void
Report::gates(const std::vector<Gate> &gs)
{
    gates_.insert(gates_.end(), gs.begin(), gs.end());
}

void
Report::operations(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ = attempted;
    failed_ = failed;
}

void
Report::selfTimes(std::vector<ModuleTime> table)
{
    selfTimes_ = std::move(table);
}

bool
Report::correct() const
{
    return !gates_.empty() && failedGates(gates_) == 0 && failed_ == 0 &&
           attempted_ > 0;
}

void
Report::printText(std::ostream &out) const
{
    out << "workload " << workload_ << " seed " << seed_
        << (traced_ ? " (traced)" : "") << "\n";
    out << "host:";
    for (const auto &[k, v] : host_)
        out << " " << k << "=" << v;
    out << "\n";
    printMetrics(out, "end-to-end metrics:", endToEnd_);
    printMetrics(out, "per-layer metrics:", perLayer_);
    printMetrics(out, "diagnostics (not gated):", diagnostics_);
    if (!selfTimes_.empty()) {
        out << "self time by module (traced spans):\n"
            << "  module        spans      total_ms       self_ms\n";
        for (const ModuleTime &m : selfTimes_) {
            out << "  " << std::left << std::setw(12) << m.module
                << std::right << std::setw(7) << m.spans << std::fixed
                << std::setprecision(2) << std::setw(14) << m.totalMs
                << std::setw(14) << m.selfMs << "\n";
            out.unsetf(std::ios::fixed);
        }
    }
    out << "operations: attempted=" << attempted_ << " failed=" << failed_
        << "\n";
    out << "correctness gates:\n";
    for (const Gate &g : gates_) {
        out << "  " << (g.ok ? "ok   " : "FAIL ") << g.name << "  "
            << g.detail << "\n";
    }
}

std::string
Report::toJson() const
{
    std::ostringstream out;
    out << "{\"workload\":\"" << escape(workload_) << "\",\"seed\":"
        << seed_ << ",\"traced\":" << (traced_ ? "true" : "false")
        << ",\"correct\":" << (correct() ? "true" : "false")
        << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
        << ",\"end_to_end\":" << metricsJson(endToEnd_)
        << ",\"per_layer\":" << metricsJson(perLayer_)
        << ",\"diagnostics\":" << metricsJson(diagnostics_)
        << ",\"host\":{";
    for (std::size_t i = 0; i < host_.size(); ++i) {
        out << (i ? "," : "") << "\"" << escape(host_[i].first)
            << "\":" << host_[i].second;
    }
    out << "},\"gates\":[";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        out << (i ? "," : "") << "{\"name\":\"" << escape(gates_[i].name)
            << "\",\"ok\":" << (gates_[i].ok ? "true" : "false")
            << ",\"detail\":\"" << escape(gates_[i].detail) << "\"}";
    }
    out << "],\"self_time\":[";
    for (std::size_t i = 0; i < selfTimes_.size(); ++i) {
        const ModuleTime &m = selfTimes_[i];
        out << (i ? "," : "") << "{\"module\":\"" << escape(m.module)
            << "\",\"spans\":" << m.spans
            << ",\"total_ms\":" << number(m.totalMs)
            << ",\"self_ms\":" << number(m.selfMs) << "}";
    }
    out << "]}";
    return out.str();
}

} // namespace perfbench
