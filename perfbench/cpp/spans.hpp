/**
 * @file
 * The benchmark's own span recorder, used only by the traced run.
 *
 * A span is a named interval (steady-clock ns) with the span that was
 * open on the same thread when it began as its parent. Spans are
 * recorded around the benchmark's calls into the library's public
 * functions, never inside the library. They stay in per-thread memory
 * while the run is measured and are collected and written out at
 * exit. The module a span belongs to is its name up to the first '.'
 * ("serve.submit" -> "serve").
 *
 * When recording is off (the end-to-end runs) a Span costs one
 * relaxed atomic load and records nothing.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady clock). */
std::uint64_t nowNs();

/** Turn span recording on or off (off by default). */
void setSpansEnabled(bool enabled);
bool spansEnabled();

/** One finished span. */
struct SpanRecord
{
    const char *name = "";   ///< String literal.
    std::uint64_t id = 0;    ///< Unique across threads, nonzero.
    std::uint64_t parent = 0; ///< Enclosing span's id; 0 at top level.
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int tid = 0;             ///< Sequential recording-thread id.

    std::uint64_t durNs() const { return endNs - startNs; }
};

/** RAII span; nests with whatever span is open on this thread. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_; ///< Null when recording was off at entry.
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t startNs_ = 0;
};

/** Every finished span of every thread, ordered by start time. */
std::vector<SpanRecord> collectSpans();

/** Drop every recorded span. */
void clearSpans();

/** Per-module totals over a set of spans. */
struct ModuleTime
{
    std::string module;
    std::uint64_t spans = 0;
    double totalMs = 0.0; ///< Sum of span durations.
    double selfMs = 0.0;  ///< Minus the time covered by child spans.
};

/** The module of a span name: its text before the first '.'. */
std::string moduleOf(const char *name);

/**
 * Self time per module, sorted by descending self time. A span's self
 * time is its duration minus the part of it covered by its direct
 * children (children on one thread nest, so their durations add).
 */
std::vector<ModuleTime> selfTimeByModule(
    const std::vector<SpanRecord> &spans);

/** The spans as a JSON array of {name,id,parent,tid,start_ns,end_ns}. */
std::string spansJson(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
