/**
 * @file
 * Causal-span tests: id-derivation invariants (nonzero, domain
 * separation, cross-process agreement), the span file's torn-tail /
 * corruption-offset contract, attempt spans recorded by
 * harness::runJob under both parent schemes (worker-pool job
 * parents, shard dispatch parents), and Chrome-trace rendering with
 * hex id args.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/machine_config.hh"
#include "harness/sweep.hh"
#include "obs/ids.hh"
#include "obs/trace.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::util::SimError;

std::string
tempPath(const std::string &name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

TEST(ObsIds, AllDerivedIdsAreNonzeroAndDistinct)
{
    const std::uint64_t trace = obs::traceIdForGrid(0x1234);
    ASSERT_NE(trace, 0u);
    std::set<std::uint64_t> ids;
    ids.insert(obs::rootSpanId(trace));
    ids.insert(obs::stageSpanId(trace, "admission"));
    ids.insert(obs::stageSpanId(trace, "swarm"));
    ids.insert(obs::stageSpanId(trace, "merge"));
    for (std::uint64_t j = 0; j < 8; ++j) {
        ids.insert(obs::jobSpanId(trace, j));
        ids.insert(obs::attemptSpanId(trace, j, 1));
        ids.insert(obs::attemptSpanId(trace, j, 2));
        ids.insert(obs::attemptSpanId(trace, j, 1, /*epoch=*/3));
        ids.insert(obs::leaseSpanId(trace, j));
        ids.insert(obs::dispatchSpanId(trace, j, 1));
    }
    // Domain separation: job 5, lease epoch 5, dispatch ticket 5 all
    // hash apart; every id is distinct and none is the 0 sentinel.
    EXPECT_EQ(ids.size(), 4u + 8u * 6u);
    EXPECT_EQ(ids.count(0), 0u);
}

TEST(ObsIds, DerivationIsPureAcrossProcesses)
{
    // The whole protocol: a coordinator and a shard that share only
    // the trace id must compute identical span ids.
    const std::uint64_t fp = 0xfeedfacecafebeefull;
    EXPECT_EQ(obs::traceIdForGrid(fp), obs::traceIdForGrid(fp));
    const std::uint64_t trace = obs::traceIdForGrid(fp);
    EXPECT_EQ(obs::dispatchSpanId(trace, 7, 2),
              obs::dispatchSpanId(trace, 7, 2));
    EXPECT_NE(obs::dispatchSpanId(trace, 7, 2),
              obs::dispatchSpanId(trace, 7, 3));
    EXPECT_NE(obs::traceIdForGrid(fp), obs::traceIdForGrid(fp + 1));
}

TEST(ObsIds, HexIdRendersFixedWidth)
{
    EXPECT_EQ(obs::hexId(0), "0x0000000000000000");
    EXPECT_EQ(obs::hexId(0x1a2b), "0x0000000000001a2b");
    EXPECT_EQ(obs::hexId(0xffffffffffffffffull),
              "0xffffffffffffffff");
}

obs::Span
sampleSpan(std::uint64_t trace, std::uint64_t job)
{
    obs::Span s;
    s.trace_id = trace;
    s.span_id = obs::jobSpanId(trace, job);
    s.parent_id = obs::rootSpanId(trace);
    s.name = "espresso@baseline";
    s.cat = "attempt";
    s.pid = 101;
    s.tid = 2;
    s.ts_us = 1500.0;
    s.dur_us = 250.0;
    s.job = job;
    s.has_job = true;
    s.attempt = 1;
    return s;
}

TEST(SpanFile, RoundTripsThroughWriterAndLoader)
{
    const std::string path = tempPath("spans_roundtrip.ndjson");
    const std::uint64_t trace = obs::traceIdForGrid(42);
    {
        obs::SpanFileWriter writer(path);
        for (std::uint64_t j = 0; j < 3; ++j)
            writer.append(sampleSpan(trace, j));
    }
    const auto loaded = obs::loadSpanFile(path);
    EXPECT_FALSE(loaded.dropped_tail);
    ASSERT_EQ(loaded.spans.size(), 3u);
    EXPECT_EQ(loaded.spans[0].trace_id, trace);
    EXPECT_EQ(loaded.spans[1].span_id, obs::jobSpanId(trace, 1));
    EXPECT_EQ(loaded.spans[2].parent_id, obs::rootSpanId(trace));
    EXPECT_EQ(loaded.spans[0].name, "espresso@baseline");
    EXPECT_EQ(loaded.spans[0].pid, 101u);
    EXPECT_TRUE(loaded.spans[0].has_job);
    EXPECT_DOUBLE_EQ(loaded.spans[0].ts_us, 1500.0);
}

TEST(SpanFile, TornTailDroppedButMidFileCorruptionRaises)
{
    const std::string path = tempPath("spans_torn.ndjson");
    const std::uint64_t trace = obs::traceIdForGrid(7);
    {
        obs::SpanFileWriter writer(path);
        writer.append(sampleSpan(trace, 0));
        writer.append(sampleSpan(trace, 1));
    }
    // Crash mid-append: half a line at EOF is dropped, not fatal.
    const auto size = fs::file_size(path);
    fs::resize_file(path, size - 7);
    const auto loaded = obs::loadSpanFile(path);
    EXPECT_TRUE(loaded.dropped_tail);
    ASSERT_EQ(loaded.spans.size(), 1u);

    // The same bytes *followed by a valid line* are corruption, and
    // the error names the byte offset.
    {
        std::ofstream out(path, std::ios::app);
        out << "\n" << obs::spanJsonLine(sampleSpan(trace, 2)) << "\n";
    }
    try {
        obs::loadSpanFile(path);
        FAIL() << "mid-file corruption must raise";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
}

TEST(SpanFile, MissingFileRaises)
{
    EXPECT_THROW(obs::loadSpanFile(tempPath("no_such.spans")),
                 SimError);
}

/**
 * Run a healthy job (grid index 0) and an invalid one (index 1, zero
 * ROB entries, failing both of its attempts) through runJob under
 * @p context, recording into @p log.
 */
void
runTracedJobs(obs::SpanLog &log, const obs::AttemptContext &context)
{
    harness::SweepJob good{core::smallModel(), trace::espresso(), 2000};
    harness::SweepJob bad = good;
    bad.machine.rob_entries = 0;
    harness::JobPolicy policy;
    policy.retries = 1;
    policy.span_log = &log;
    policy.span_context = context;
    EXPECT_TRUE(harness::runJob(good, 0, policy).ok);
    EXPECT_FALSE(harness::runJob(bad, 1, policy).ok);
}

TEST(AttemptSpans, WorkerPoolAttemptsParentToJobSpans)
{
    const std::uint64_t trace = obs::traceIdForGrid(99);
    obs::SpanLog log;
    obs::AttemptContext context;
    context.trace_id = trace;
    runTracedJobs(log, context);
    const auto spans = log.spans();
    ASSERT_EQ(spans.size(), 3u); // 1 ok + 2 failed attempts
    EXPECT_EQ(spans[0].span_id, obs::attemptSpanId(trace, 0, 1));
    EXPECT_EQ(spans[0].parent_id, obs::jobSpanId(trace, 0));
    EXPECT_EQ(spans[0].cat, "ok");
    EXPECT_EQ(spans[0].name, "espresso@small");
    for (std::size_t k = 1; k < 3; ++k) {
        EXPECT_EQ(spans[k].span_id,
                  obs::attemptSpanId(trace, 1, static_cast<unsigned>(k)));
        EXPECT_EQ(spans[k].parent_id, obs::jobSpanId(trace, 1));
        EXPECT_EQ(spans[k].cat, "failed");
        EXPECT_FALSE(spans[k].error.empty());
    }
    for (const obs::Span &span : spans) {
        EXPECT_EQ(span.trace_id, trace);
        EXPECT_EQ(span.pid, 0u);
        EXPECT_TRUE(span.has_job);
        EXPECT_FALSE(span.instant);
        // Microseconds on the log's clock: a 2000-instruction run
        // takes well under a minute.
        EXPECT_GE(span.ts_us, 0.0);
        EXPECT_GE(span.dur_us, 0.0);
        EXPECT_LT(span.ts_us + span.dur_us, 60e6);
    }
}

TEST(AttemptSpans, ShardAttemptsParentToDispatchSpans)
{
    const std::uint64_t trace = obs::traceIdForGrid(99);
    const std::uint64_t epoch = 2;
    obs::SpanLog log;
    // The shard path: the coordinator's dispatch span is the parent.
    obs::AttemptContext context;
    context.trace_id = trace;
    context.pid = 102;
    context.epoch = epoch;
    context.parent_id = obs::dispatchSpanId(trace, 10, epoch);
    runTracedJobs(log, context);
    const auto spans = log.spans();
    ASSERT_EQ(spans.size(), 3u);
    for (const obs::Span &span : spans) {
        EXPECT_EQ(span.parent_id, obs::dispatchSpanId(trace, 10, epoch));
        EXPECT_EQ(span.pid, 102u);
    }
    // Epoch-qualified attempt ids: the same job+attempt on another
    // incarnation is a distinct span.
    EXPECT_EQ(spans[0].span_id,
              obs::attemptSpanId(trace, 0, 1, epoch));
    EXPECT_NE(spans[0].span_id, obs::attemptSpanId(trace, 0, 1));
    EXPECT_EQ(spans[2].span_id,
              obs::attemptSpanId(trace, 1, 2, epoch));
}

TEST(AttemptSpans, IdentityRuleDefaultsToTheJobSpan)
{
    const std::uint64_t trace = obs::traceIdForGrid(7);
    obs::AttemptContext context;
    context.trace_id = trace;
    const obs::Span replay = obs::attemptSpan(context, 4, 0);
    EXPECT_EQ(replay.span_id, obs::attemptSpanId(trace, 4, 0));
    EXPECT_EQ(replay.parent_id, obs::jobSpanId(trace, 4));
    EXPECT_TRUE(replay.has_job);
    EXPECT_EQ(replay.job, 4u);
    EXPECT_EQ(replay.attempt, 0u);
}

TEST(ChromeTrace, RendersHexIdArgsAndProcessNames)
{
    const std::uint64_t trace = obs::traceIdForGrid(5);
    obs::Span root;
    root.trace_id = trace;
    root.span_id = obs::rootSpanId(trace);
    root.name = "grid";
    root.cat = "grid";
    root.pid = 1;
    root.dur_us = 5000.0;
    std::vector<obs::Span> spans{root, sampleSpan(trace, 0)};
    spans[1].pid = 101;

    std::ostringstream os;
    obs::writeChromeTrace(os, spans,
                          {{1, "aurora_swarm"},
                           {101, "aurora_shardd e1"}});
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find(obs::hexId(trace)), std::string::npos);
    EXPECT_NE(doc.find("\"parent_id\":\"" + obs::hexId(trace) + "\""),
              std::string::npos);
    EXPECT_NE(doc.find("aurora_shardd e1"), std::string::npos);
    // The root's parent renders as the zero sentinel, not omitted.
    EXPECT_NE(doc.find("0x0000000000000000"), std::string::npos);
}

TEST(SpanLog, CollectsConcurrentlyAndSnapshots)
{
    const std::uint64_t trace = obs::traceIdForGrid(3);
    obs::SpanLog log;
    log.add(sampleSpan(trace, 0));
    log.addAll({sampleSpan(trace, 1), sampleSpan(trace, 2)});
    EXPECT_EQ(log.size(), 3u);
    const auto spans = log.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[2].span_id, obs::jobSpanId(trace, 2));
    // take() drains: the shard forwards each job's attempts once.
    EXPECT_EQ(log.take().size(), 3u);
    EXPECT_EQ(log.size(), 0u);
}

} // namespace
