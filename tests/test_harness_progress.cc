/**
 * @file
 * Sweep progress telemetry tests: the on_progress heartbeat fires on
 * a deterministic job-count cadence with consistent counters at any
 * worker count, classifies ok/failed/timed-out/retried jobs, and the
 * sweep's span log records one obs::Span per attempt (category = its
 * outcome) and renders as a valid, untraced trace-event document.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "core/simulator.hh"
#include "harness/sweep.hh"
#include "obs/trace.hh"
#include "telemetry/json.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace aurora;
using namespace aurora::core;
using namespace aurora::harness;

constexpr Count N = 5000;

std::vector<std::function<RunResult()>>
healthyTasks(std::size_t n)
{
    std::vector<std::function<RunResult()>> tasks;
    for (std::size_t i = 0; i < n; ++i)
        tasks.push_back([]() {
            return simulate(baselineModel(), trace::espresso(), N);
        });
    return tasks;
}

/** Thread-safe collector for heartbeat snapshots. */
struct ProgressLog
{
    std::mutex mutex;
    std::vector<SweepProgress> snapshots;

    std::function<void(const SweepProgress &)>
    callback()
    {
        return [this](const SweepProgress &p) {
            const std::lock_guard<std::mutex> lock(mutex);
            snapshots.push_back(p);
        };
    }
};

TEST(Progress, CadenceIsDeterministicAcrossWorkerCounts)
{
    constexpr std::size_t JOBS = 12;
    for (const unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ProgressLog log;
        SweepOptions opts;
        opts.workers = workers;
        opts.progress_every = 3;
        opts.on_progress = log.callback();
        SweepRunner runner(opts);
        runner.runTaskOutcomes(healthyTasks(JOBS));

        // Heartbeats at done = 3, 6, 9, 12 — a function of job
        // counts only, never of wall-clock time or thread schedule.
        ASSERT_EQ(log.snapshots.size(), JOBS / 3);
        std::size_t expected = 3;
        for (const SweepProgress &p : log.snapshots) {
            EXPECT_EQ(p.done, expected);
            EXPECT_EQ(p.total, JOBS);
            EXPECT_EQ(p.ok, p.done);
            EXPECT_EQ(p.failed, 0u);
            EXPECT_EQ(p.timed_out, 0u);
            EXPECT_GE(p.elapsed_seconds, 0.0);
            EXPECT_GE(p.eta_seconds, 0.0);
            expected += 3;
        }
        const SweepProgress &last = log.snapshots.back();
        EXPECT_EQ(last.done, last.total);
        EXPECT_EQ(last.eta_seconds, 0.0);
    }
}

TEST(Progress, DefaultCadenceAlwaysReportsCompletion)
{
    // progress_every = 0 derives a ~5% cadence; whatever it picks,
    // the final heartbeat must be done == total.
    ProgressLog log;
    SweepOptions opts;
    opts.workers = 2;
    opts.on_progress = log.callback();
    SweepRunner runner(opts);
    runner.runTaskOutcomes(healthyTasks(7));
    ASSERT_FALSE(log.snapshots.empty());
    EXPECT_EQ(log.snapshots.back().done, 7u);
    EXPECT_EQ(log.snapshots.back().total, 7u);
}

TEST(Progress, ClassifiesFailuresRetriesAndTimeouts)
{
    auto tasks = healthyTasks(2);
    // A terminal failure...
    tasks.push_back([]() -> RunResult {
        util::raiseError(util::SimErrorCode::Internal, "boom");
    });
    // ...a transient one that retry recovers...
    auto flaky_calls = std::make_shared<std::atomic<unsigned>>(0);
    tasks.push_back([flaky_calls]() {
        if (flaky_calls->fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient");
        return simulate(baselineModel(), trace::li(), N);
    });
    // ...and a timeout (never retried).
    tasks.push_back([]() -> RunResult {
        util::raiseError(util::SimErrorCode::Timeout, "deadline");
    });

    ProgressLog log;
    SweepOptions opts;
    opts.workers = 2;
    opts.retries = 1;
    opts.progress_every = 1;
    opts.on_progress = log.callback();
    SweepRunner runner(opts);
    const auto outcomes = runner.runTaskOutcomes(tasks);

    ASSERT_EQ(log.snapshots.size(), tasks.size());
    const SweepProgress &last = log.snapshots.back();
    EXPECT_EQ(last.done, tasks.size());
    EXPECT_EQ(last.ok, 3u);
    EXPECT_EQ(last.failed, 1u);
    EXPECT_EQ(last.timed_out, 1u);
    // Retried == jobs that needed more than one attempt: the flaky
    // job that recovered AND the terminal failure that burned its
    // retry budget (same semantics as SweepReport::retried_jobs).
    EXPECT_EQ(last.retried, 2u);
    EXPECT_TRUE(outcomes[3].ok);
    EXPECT_EQ(outcomes[3].attempts, 2u);

    // The rendered heartbeat line carries the same numbers.
    const std::string line = last.toString();
    EXPECT_NE(line.find("sweep progress: 5/5 done"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("retried 2"), std::string::npos) << line;
}

TEST(Progress, HeartbeatsNeverPerturbResults)
{
    // The same grid with and without a callback, at several worker
    // counts: cycle counts must be bit-identical.
    std::vector<SweepJob> grid;
    for (const char *bench : {"espresso", "li", "nasa7"})
        grid.push_back(
            {baselineModel(), trace::profileByName(bench), N});
    SweepOptions plain_opts;
    plain_opts.workers = 1;
    SweepRunner plain(plain_opts);
    const auto reference = plain.run(grid);

    for (const unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ProgressLog log;
        SweepOptions opts;
        opts.workers = workers;
        opts.progress_every = 1;
        opts.on_progress = log.callback();
        SweepRunner runner(opts);
        const auto outcomes = runner.runOutcomes(grid);
        ASSERT_EQ(outcomes.size(), reference.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_TRUE(outcomes[i].ok);
            EXPECT_EQ(outcomes[i].result.cycles,
                      reference[i].cycles);
            EXPECT_EQ(outcomes[i].result.instructions,
                      reference[i].instructions);
        }
        EXPECT_EQ(log.snapshots.size(), grid.size());
    }
}

TEST(Timeline, RecordsOneSpanPerAttemptWithDenseWorkerIds)
{
    auto tasks = healthyTasks(3);
    auto flaky_calls = std::make_shared<std::atomic<unsigned>>(0);
    tasks.push_back([flaky_calls]() {
        if (flaky_calls->fetch_add(1) == 0)
            util::raiseError(util::SimErrorCode::Internal,
                             "transient");
        return simulate(baselineModel(), trace::li(), N);
    });

    obs::SpanLog timeline;
    SweepOptions opts;
    opts.workers = 2;
    opts.retries = 1;
    opts.timeline = &timeline;
    SweepRunner runner(opts);
    runner.runTaskOutcomes(tasks);

    // 3 healthy attempts + failed attempt + retry attempt.
    const auto spans = timeline.spans();
    ASSERT_EQ(spans.size(), 5u);
    std::size_t failed = 0, second_attempts = 0;
    for (const obs::Span &span : spans) {
        EXPECT_GE(span.dur_us, 0.0);
        EXPECT_LT(span.tid, 2u);
        EXPECT_EQ(span.trace_id, 0u); // a standalone sweep is untraced
        if (span.cat == "failed") {
            ++failed;
            EXPECT_FALSE(span.error.empty());
        }
        second_attempts += span.attempt == 2;
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(second_attempts, 1u);
}

TEST(Timeline, RendersAsValidTraceEventDocument)
{
    obs::SpanLog timeline;
    SweepOptions opts;
    opts.workers = 2;
    opts.timeline = &timeline;
    SweepRunner runner(opts);
    runner.runTaskOutcomes(healthyTasks(4));

    std::ostringstream os;
    obs::writeChromeTrace(os, timeline.spans(),
                          {{0, "progress test sweep"}});
    std::string error;
    const auto doc = telemetry::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const auto *events = doc->find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    // Spans are sorted per worker track with non-decreasing starts;
    // each track that ran an attempt is named "worker <tid>".
    double last_ts = -1.0;
    double last_tid = -1.0;
    std::size_t spans = 0;
    std::set<double> tids, named_workers;
    for (const auto &e : events->array) {
        if (e.find("ph")->string == "M") {
            if (e.find("name")->string == "thread_name") {
                const double tid = e.find("tid")->number;
                EXPECT_EQ(e.find("args")->find("name")->string,
                          "worker " + std::to_string(
                                          static_cast<int>(tid)));
                named_workers.insert(tid);
            }
            continue;
        }
        ASSERT_EQ(e.find("ph")->string, "X");
        ++spans;
        const double tid = e.find("tid")->number;
        tids.insert(tid);
        const double ts = e.find("ts")->number;
        if (tid == last_tid) {
            EXPECT_GE(ts, last_ts);
        }
        last_tid = tid;
        last_ts = ts;
        EXPECT_GE(e.find("dur")->number, 0.0);
        EXPECT_EQ(e.find("cat")->string, "ok");
        // Untraced: no causal ids, so aurora_obs_check treats the
        // document as a plain (non-causal) trace.
        const auto *args = e.find("args");
        ASSERT_TRUE(args);
        EXPECT_FALSE(args->find("trace_id"));
        EXPECT_FALSE(args->find("span_id"));
        EXPECT_FALSE(args->find("parent_id"));
    }
    EXPECT_EQ(spans, 4u);
    EXPECT_EQ(named_workers, tids);
}

TEST(Timeline, AttemptCategoriesAreOutcomes)
{
    // ok, failed (any non-timeout error) and timeout attempts...
    std::vector<std::function<RunResult()>> tasks = healthyTasks(1);
    tasks.push_back([]() -> RunResult {
        util::raiseError(util::SimErrorCode::Internal, "broken");
    });
    tasks.push_back([]() -> RunResult {
        util::raiseError(util::SimErrorCode::Timeout, "deadline");
    });
    obs::SpanLog timeline;
    SweepOptions opts;
    opts.workers = 1;
    opts.timeline = &timeline;
    SweepRunner(opts).runTaskOutcomes(tasks);

    // ...and journal replays, which are "resumed" instants.
    const std::string journal =
        ::testing::TempDir() + "/progress_categories.ajrn";
    std::remove(journal.c_str());
    const std::vector<SweepJob> grid = {
        {baselineModel(), trace::espresso(), N}};
    SweepOptions jopts;
    jopts.workers = 1;
    jopts.journal = journal;
    SweepRunner(jopts).runOutcomes(grid);
    jopts.resume = true;
    jopts.timeline = &timeline;
    SweepRunner(jopts).runOutcomes(grid);
    std::remove(journal.c_str());

    const auto spans = timeline.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].cat, "ok");
    EXPECT_EQ(spans[1].cat, "failed");
    EXPECT_EQ(spans[2].cat, "timeout");
    EXPECT_EQ(spans[3].cat, "resumed");
    EXPECT_TRUE(spans[3].instant);
    EXPECT_EQ(spans[3].attempt, 0u);
    EXPECT_EQ(spans[3].name, "espresso@baseline");
}

} // namespace
