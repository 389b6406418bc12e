/**
 * @file
 * In-memory span log of a traced run.
 *
 * The benchmark wraps a span (name, start, end, parent, group) around
 * each of its own calls into a library layer. Spans stay in memory
 * and are written once, as a Chrome trace, when the run ends. A
 * span's self time is its duration minus the durations of its direct
 * children; the per-layer rows are sums of self time.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    /** 0 = root. */
    std::uint64_t parent = 0;
    /** One id per grid or job, shared by its spans. */
    std::uint64_t group = 0;
    std::uint32_t tid = 0;

    std::int64_t durNs() const { return end_ns - start_ns; }
};

/** Thread-safe span sink. */
class SpanLog
{
  public:
    std::uint64_t nextId() { return next_.fetch_add(1) + 1; }
    void record(Span span);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Spans named @p name. */
    std::vector<Span> named(const std::string &name) const;

    /** Σ self time (ns) of spans named @p name. */
    double selfNs(const std::string &name) const;

    /** Σ duration (ns) of spans named @p name. */
    double totalNs(const std::string &name) const;

    /** Write every span as Chrome trace-event JSON ("X" events). */
    void writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint64_t> next_{0};
};

/**
 * RAII span: starts on construction, records on destruction. With a
 * null log it does nothing, so one code path serves traced and
 * untraced callers.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name, std::uint64_t parent = 0,
               std::uint64_t group = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    SpanLog *log_;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
