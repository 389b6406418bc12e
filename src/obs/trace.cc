#include "trace.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "obs/ids.hh"
#include "telemetry/json.hh"
#include "telemetry/trace_event.hh"
#include "util/sim_error.hh"

namespace aurora::obs
{

std::uint32_t
SpanLog::workerId()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return workerIds_
        .try_emplace(std::this_thread::get_id(),
                     static_cast<std::uint32_t>(workerIds_.size()))
        .first->second;
}

void
SpanLog::add(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
SpanLog::addAll(const std::vector<Span> &spans)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
SpanLog::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<Span>
SpanLog::take()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
}

Span
attemptSpan(const AttemptContext &ctx, std::uint64_t job,
            std::uint32_t attempt)
{
    Span span;
    span.trace_id = ctx.trace_id;
    span.span_id = attemptSpanId(ctx.trace_id, job, attempt, ctx.epoch);
    span.parent_id = ctx.parent_id != 0 ? ctx.parent_id
                                        : jobSpanId(ctx.trace_id, job);
    span.pid = ctx.pid;
    span.job = job;
    span.has_job = true;
    span.attempt = attempt;
    return span;
}

std::string
spanJsonLine(const Span &span)
{
    std::ostringstream os;
    os << "{\"schema\": \"aurora.spans.v1\""
       << ", \"trace\": \"" << hexId(span.trace_id) << '"'
       << ", \"span\": \"" << hexId(span.span_id) << '"'
       << ", \"parent\": \"" << hexId(span.parent_id) << '"'
       << ", \"name\": \"" << telemetry::jsonEscape(span.name) << '"'
       << ", \"cat\": \"" << telemetry::jsonEscape(span.cat) << '"'
       << ", \"pid\": " << span.pid << ", \"tid\": " << span.tid
       << ", \"ts_us\": " << telemetry::jsonNumber(span.ts_us)
       << ", \"dur_us\": " << telemetry::jsonNumber(span.dur_us);
    if (span.instant)
        os << ", \"instant\": true";
    if (span.has_job)
        os << ", \"job\": " << span.job;
    if (span.attempt != 0)
        os << ", \"attempt\": " << span.attempt;
    if (!span.error.empty())
        os << ", \"error\": \"" << telemetry::jsonEscape(span.error)
           << '"';
    os << '}';
    return os.str();
}

SpanFileWriter::SpanFileWriter(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        util::raiseError(util::SimErrorCode::BadTrace,
                         "cannot open span file '", path,
                         "': ", std::strerror(errno));
}

SpanFileWriter::~SpanFileWriter()
{
    if (file_)
        std::fclose(file_);
}

void
SpanFileWriter::append(const Span &span)
{
    const std::string line = spanJsonLine(span);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
}

namespace
{

std::uint64_t
hexField(const telemetry::JsonValue &obj, const char *key)
{
    const telemetry::JsonValue *v = obj.find(key);
    if (!v || !v->isString())
        return 0;
    return std::strtoull(v->string.c_str(), nullptr, 16);
}

double
numField(const telemetry::JsonValue &obj, const char *key)
{
    const telemetry::JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->number : 0.0;
}

std::string
strField(const telemetry::JsonValue &obj, const char *key)
{
    const telemetry::JsonValue *v = obj.find(key);
    return v && v->isString() ? v->string : std::string();
}

/** Parse one NDJSON line to a Span; nullopt (with @p error set) on
 *  malformed JSON or a wrong schema tag. */
std::optional<Span>
parseSpanLine(std::string_view line, std::string *error)
{
    const std::optional<telemetry::JsonValue> doc =
        telemetry::parseJson(line, error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        if (error)
            *error = "span line is not a JSON object";
        return std::nullopt;
    }
    const telemetry::JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString() ||
        schema->string != "aurora.spans.v1") {
        if (error)
            *error = "missing or unknown span schema tag";
        return std::nullopt;
    }
    Span span;
    span.trace_id = hexField(*doc, "trace");
    span.span_id = hexField(*doc, "span");
    span.parent_id = hexField(*doc, "parent");
    span.name = strField(*doc, "name");
    span.cat = strField(*doc, "cat");
    span.pid = static_cast<std::uint32_t>(numField(*doc, "pid"));
    span.tid = static_cast<std::uint32_t>(numField(*doc, "tid"));
    span.ts_us = numField(*doc, "ts_us");
    span.dur_us = numField(*doc, "dur_us");
    const telemetry::JsonValue *instant = doc->find("instant");
    span.instant = instant && instant->kind ==
                                  telemetry::JsonValue::Kind::Bool &&
                   instant->boolean;
    if (const telemetry::JsonValue *job = doc->find("job");
        job && job->isNumber()) {
        span.has_job = true;
        span.job = static_cast<std::uint64_t>(job->number);
    }
    span.attempt = static_cast<std::uint32_t>(numField(*doc, "attempt"));
    span.error = strField(*doc, "error");
    return span;
}

} // namespace

LoadedSpans
loadSpanFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::raiseError(util::SimErrorCode::BadTrace,
                         "cannot open span file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    LoadedSpans loaded;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const bool torn_candidate = eol == std::string::npos;
        const std::string_view line(
            text.data() + pos,
            (torn_candidate ? text.size() : eol) - pos);
        const std::size_t line_start = pos;
        pos = torn_candidate ? text.size() : eol + 1;
        if (line.empty())
            continue;
        std::string error;
        std::optional<Span> span = parseSpanLine(line, &error);
        if (!span) {
            // The journal's crash contract: an interrupted final
            // append (no terminating newline) is dropped silently;
            // damage anywhere else is real corruption.
            if (torn_candidate) {
                loaded.dropped_tail = true;
                break;
            }
            util::raiseError(util::SimErrorCode::BadTrace, "'", path,
                             "': bad span line at byte ", line_start,
                             ": ", error);
        }
        loaded.spans.push_back(std::move(*span));
    }
    return loaded;
}

namespace
{

/** Attempt spans are categorised by how the attempt ended. */
bool
isAttemptSpan(const Span &span)
{
    return span.cat == "ok" || span.cat == "failed" ||
           span.cat == "timeout" || span.cat == "resumed";
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<Span> &spans,
                 const std::vector<ProcessName> &processes,
                 const std::vector<TrackName> &tracks)
{
    std::vector<Span> sorted = spans;
    // Trace viewers (and aurora_obs_check) require each (pid, tid)
    // track's events in non-decreasing ts order; span id breaks the
    // remaining ties deterministically.
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Span &a, const Span &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         if (a.ts_us != b.ts_us)
                             return a.ts_us < b.ts_us;
                         return a.span_id < b.span_id;
                     });

    telemetry::TraceEventLog log;
    for (const ProcessName &proc : processes)
        log.nameProcess(proc.pid, proc.name);
    std::set<std::pair<std::uint32_t, std::uint32_t>> workers;
    for (const Span &span : sorted)
        if (isAttemptSpan(span) &&
            workers.emplace(span.pid, span.tid).second)
            log.nameThread(span.pid, span.tid,
                           "worker " + std::to_string(span.tid));
    for (const TrackName &track : tracks)
        log.nameThread(track.pid, track.tid, track.name);
    for (const Span &span : sorted) {
        std::vector<telemetry::TraceArg> args;
        // An untraced span (a standalone sweep) carries no ids, so
        // its trace stays non-causal for aurora_obs_check.
        if (span.trace_id != 0) {
            args.push_back(telemetry::traceArg(
                "trace_id", std::string_view(hexId(span.trace_id))));
            args.push_back(telemetry::traceArg(
                "span_id", std::string_view(hexId(span.span_id))));
            args.push_back(telemetry::traceArg(
                "parent_id", std::string_view(hexId(span.parent_id))));
        }
        if (span.has_job)
            args.push_back(telemetry::traceArg("job", span.job));
        if (span.attempt != 0)
            args.push_back(telemetry::traceArg(
                "attempt", static_cast<std::uint64_t>(span.attempt)));
        if (!span.error.empty())
            args.push_back(telemetry::traceArg(
                "error", std::string_view(span.error)));
        if (span.instant)
            log.instant(span.name, span.cat, span.pid, span.tid,
                        span.ts_us, std::move(args));
        else
            log.complete(span.name, span.cat, span.pid, span.tid,
                         span.ts_us, span.dur_us, std::move(args));
    }
    log.write(os);
}

} // namespace aurora::obs
