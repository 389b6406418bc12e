/**
 * @file
 * Causal spans: the cross-process half of the tracing plane.
 *
 * A Span is one parented interval (or instant) of a grid's life —
 * admission, queue wait, dispatch, a job attempt, a lease epoch,
 * the merge. harness::runJob records every job attempt straight into
 * a SpanLog, in any executor (standalone sweep, serve worker pool,
 * shard). Every process collects its spans locally (SpanLog in
 * memory, SpanFileWriter as crash-durable NDJSON `aurora.spans.v1`
 * lines) and the grid's owner folds them into one Chrome trace with
 * writeChromeTrace(). Parentage is by derived ids (obs/ids.hh), so
 * folding is pure concatenation — no cross-process id fixup.
 *
 * Timestamps are each recording process's own steady-clock
 * milliseconds; tracks are keyed (pid, tid) so per-track monotonicity
 * holds even though processes' clocks are not aligned.
 *
 * The span file format follows the journal's durability contract: one
 * flushed line per span, a torn tail (crash mid-write) is detected
 * and dropped by loadSpanFile(), mid-file corruption is an error.
 */

#ifndef AURORA_OBS_TRACE_HH
#define AURORA_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/stats.hh"

namespace aurora::obs
{

/** One parented interval (or instant) of a traced grid. */
struct Span
{
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    /** 0 = root (no parent). */
    std::uint64_t parent_id = 0;
    /** Display name ("grid", "lease e3", "espresso@baseline", ...). */
    std::string name;
    /** Stable category (doubles as the Chrome trace cat): grid|
     *  admission|job|swarm|lease|dispatch|merge|... An attempt span's
     *  category is how the attempt ended: ok|failed|timeout|resumed
     *  (a journal replay). */
    std::string cat;
    /** Trace-view process track (0 = serve, 1 = swarm, 100+e = shard
     *  epoch e). */
    std::uint32_t pid = 0;
    /** Thread track within the process. */
    std::uint32_t tid = 0;
    /** Microseconds on the recording process's steady clock
     *  (1 wall ms = 1000 trace µs). */
    double ts_us = 0.0;
    double dur_us = 0.0;
    /** Zero-length marker event (journal replay, migration, ...). */
    bool instant = false;
    /** Grid job index; meaningful when has_job. */
    std::uint64_t job = 0;
    bool has_job = false;
    /** Attempt number for attempt spans (0 otherwise). */
    std::uint32_t attempt = 0;
    /** Failure text for failed/timeout attempt spans. */
    std::string error;
};

/**
 * Thread-safe in-memory span collector. One log may span several
 * grids on one clock (the fault-storm bench records healthy, flaky
 * and resumed sweeps into a single trace).
 */
class SpanLog
{
  public:
    /** Microseconds since construction (the log's steady-clock
     *  epoch, the time base of the spans recorded into it). */
    double nowUs() const { return epoch_.seconds() * 1e6; }

    /** Dense id of the calling thread (its first call assigns the
     *  next one): the trace-view track of its attempt spans. */
    std::uint32_t workerId();

    void add(Span span);

    /** Append a whole batch (shard span-file fold-in). */
    void addAll(const std::vector<Span> &spans);

    std::vector<Span> spans() const;
    std::size_t size() const;

    /** Move every span out, leaving the log empty (the shard drains
     *  each job's attempts to its span file). */
    std::vector<Span> take();

  private:
    mutable std::mutex mutex_;
    WallTimer epoch_;
    std::map<std::thread::id, std::uint32_t> workerIds_;
    std::vector<Span> spans_;
};

/**
 * Where one job's attempt spans sit in a trace, supplied by whoever
 * runs the attempt loop: the worker pool leaves the parent to the
 * job's span, a shard names the coordinator's dispatch span.
 */
struct AttemptContext
{
    /** Grid trace id; 0 = untraced (the Chrome trace then carries no
     *  id args for these spans). */
    std::uint64_t trace_id = 0;
    /** Trace-view process track (0 = serve or a standalone sweep,
     *  100+e = shard epoch e). */
    std::uint32_t pid = 0;
    /** Shard lease epoch qualifying the attempt ids (0 = worker
     *  pool). */
    std::uint64_t epoch = 0;
    /** Parent span id; 0 = the job's span, jobSpanId(trace_id, job). */
    std::uint64_t parent_id = 0;
};

/**
 * The attempt-identity rule: attempt @p attempt (0 = journal replay)
 * of job @p job is attemptSpanId(trace, job, attempt, epoch), parented
 * per @p ctx on @p ctx's process track. The caller fills name, cat,
 * tid, timing and error.
 */
Span attemptSpan(const AttemptContext &ctx, std::uint64_t job,
                 std::uint32_t attempt);

/** One `aurora.spans.v1` NDJSON line (no trailing newline). */
std::string spanJsonLine(const Span &span);

/**
 * Append-only crash-durable span sink: one flushed NDJSON line per
 * span. Shards write their attempt spans through this so a SIGKILLed
 * worker's completed spans survive for the coordinator's fold-in.
 */
class SpanFileWriter
{
  public:
    /** Opens (truncates) @p path; raises SimError(BadTrace) on
     *  failure. */
    explicit SpanFileWriter(const std::string &path);
    ~SpanFileWriter();

    SpanFileWriter(const SpanFileWriter &) = delete;
    SpanFileWriter &operator=(const SpanFileWriter &) = delete;

    /** Render, write, flush one span. */
    void append(const Span &span);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::mutex mutex_;
};

/** loadSpanFile() result. */
struct LoadedSpans
{
    std::vector<Span> spans;
    /** A torn trailing line (crash mid-append) was dropped. */
    bool dropped_tail = false;
};

/**
 * Read an `aurora.spans.v1` file back. A torn final line — no
 * newline, or unparseable JSON at EOF — is dropped (dropped_tail);
 * malformed JSON elsewhere raises SimError(BadTrace) with the byte
 * offset. A missing file raises SimError(BadTrace).
 */
LoadedSpans loadSpanFile(const std::string &path);

/** (pid, display name) pair for the trace's process directory. */
struct ProcessName
{
    std::uint32_t pid = 0;
    std::string name;
};

/** (pid, tid, display name) of a track that is not a worker's. */
struct TrackName
{
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::string name;
};

/**
 * Render spans as one Chrome trace-event document — the one span
 * writer. Spans are sorted by (pid, tid, ts, span id) so every track
 * is time-monotone; each traced event carries trace_id/span_id/
 * parent_id as 0x-hex string args (u64 ids do not survive JSON
 * doubles), an untraced one (trace id 0) none, plus job/attempt/error
 * when set. Every track that carries attempt spans is named
 * "worker <tid>"; @p tracks names others.
 */
void writeChromeTrace(std::ostream &os, const std::vector<Span> &spans,
                      const std::vector<ProcessName> &processes,
                      const std::vector<TrackName> &tracks = {});

} // namespace aurora::obs

#endif // AURORA_OBS_TRACE_HH
