#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> gEnabled{false};

/** One thread's finished spans and its stack of open span ids. */
struct ThreadBuffer
{
    int tid = 0;
    std::uint64_t nextSeq = 0;
    std::vector<std::uint64_t> open;
    std::vector<SpanRecord> done;
};

std::mutex gBuffersMu;
std::vector<std::shared_ptr<ThreadBuffer>> gBuffers; // Guarded.
int gNextTid = 0;                                     // Guarded.

ThreadBuffer &
localBuffer()
{
    // The registry co-owns every buffer, so spans of threads that
    // have exited are still collected.
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto fresh = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(gBuffersMu);
        fresh->tid = gNextTid++;
        gBuffers.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setSpansEnabled(bool enabled)
{
    gEnabled.store(enabled, std::memory_order_relaxed);
}

bool
spansEnabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

Span::Span(const char *name) : name_(nullptr)
{
    if (!spansEnabled())
        return;
    ThreadBuffer &buf = localBuffer();
    name_ = name;
    // Ids: thread in the high bits, per-thread sequence below.
    id_ = (static_cast<std::uint64_t>(buf.tid + 1) << 40) | ++buf.nextSeq;
    parent_ = buf.open.empty() ? 0 : buf.open.back();
    buf.open.push_back(id_);
    startNs_ = nowNs();
}

Span::~Span()
{
    if (name_ == nullptr)
        return;
    const std::uint64_t end = nowNs();
    ThreadBuffer &buf = localBuffer();
    buf.open.pop_back();
    buf.done.push_back(
        SpanRecord{name_, id_, parent_, startNs_, end, buf.tid});
}

std::vector<SpanRecord>
collectSpans()
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> lock(gBuffersMu);
        for (const auto &buf : gBuffers)
            all.insert(all.end(), buf->done.begin(), buf->done.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs != b.startNs ? a.startNs < b.startNs
                                                : a.id < b.id;
              });
    return all;
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(gBuffersMu);
    for (const auto &buf : gBuffers)
        buf->done.clear();
}

std::string
moduleOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot == nullptr ? std::string(name)
                          : std::string(name, dot - name);
}

std::vector<ModuleTime>
selfTimeByModule(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::uint64_t> childNs;
    for (const SpanRecord &s : spans) {
        if (s.parent != 0)
            childNs[s.parent] += s.durNs();
    }
    std::map<std::string, ModuleTime> byModule;
    for (const SpanRecord &s : spans) {
        ModuleTime &m = byModule[moduleOf(s.name)];
        const auto child = childNs.find(s.id);
        const std::uint64_t covered =
            child == childNs.end() ? 0 : std::min(child->second,
                                                  s.durNs());
        ++m.spans;
        m.totalMs += static_cast<double>(s.durNs()) / 1e6;
        m.selfMs += static_cast<double>(s.durNs() - covered) / 1e6;
    }
    std::vector<ModuleTime> out;
    for (auto &[name, m] : byModule) {
        m.module = name;
        out.push_back(m);
    }
    std::sort(out.begin(), out.end(),
              [](const ModuleTime &a, const ModuleTime &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

std::string
spansJson(const std::vector<SpanRecord> &spans)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"tid\":" << s.tid << ",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << "}";
    }
    out << "\n]\n";
    return out.str();
}

} // namespace perfbench
