#include "spans.hh"

#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common.hh"

namespace perfbench
{

void
SpanLog::record(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<Span>
SpanLog::named(const std::string &name) const
{
    std::vector<Span> out;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s);
    return out;
}

double
SpanLog::selfNs(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const Span &s : spans_)
        if (s.parent != 0)
            child_ns[s.parent] += s.durNs();
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name != name)
            continue;
        const auto it = child_ns.find(s.id);
        total += static_cast<double>(
            s.durNs() - (it == child_ns.end() ? 0 : it->second));
    }
    return total;
}

double
SpanLog::totalNs(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : named(name))
        total += static_cast<double>(s.durNs());
    return total;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    for (const Span &s : all)
        if (origin == 0 || s.start_ns < origin)
            origin = s.start_ns;
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : all) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
            << "\"tid\":" << s.tid << ",\"ts\":"
            << static_cast<double>(s.start_ns - origin) / 1e3
            << ",\"dur\":" << static_cast<double>(s.durNs()) / 1e3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"group\":" << s.group << "}}";
    }
    out << "\n]}\n";
}

namespace
{

std::uint32_t
threadTag()
{
    return static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffffu);
}

} // namespace

ScopedSpan::ScopedSpan(SpanLog *log, std::string name,
                       std::uint64_t parent, std::uint64_t group)
    : log_(log)
{
    if (!log_)
        return;
    span_.name = std::move(name);
    span_.id = log_->nextId();
    span_.parent = parent;
    span_.group = group;
    span_.tid = threadTag();
    span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!log_)
        return;
    span_.end_ns = nowNs();
    log_->record(std::move(span_));
}

} // namespace perfbench
