/**
 * @file
 * The two core workloads: fig4_paired (the Figure 4 grid on one
 * worker, every machine replaying the same seed-derived traces) and
 * fig9_fp_seeded (the Figure 9(a-c) FPU grid on two workers with a
 * per-job base seed, so no two jobs share a trace).
 *
 * An untraced run times whole-grid passes through
 * harness::SweepRunner::run. A traced run times the same grid through
 * SweepRunner::runTasks over runJobSplit, which pulls the generator
 * out of core::simulate so synthesis, the cycle loop and result
 * serialization each get a span; its digest must equal the untraced
 * one.
 */

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "bench.hh"
#include "core/machine_config.hh"
#include "core/simulator.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic_workload.hh"
#include "trace/trace_source.hh"
#include "util/parallel.hh"

namespace perfbench
{

using namespace aurora;

namespace
{

constexpr Count FIG4_INSTS = 200'000;
constexpr Count FIG9_INSTS = 100'000;

struct CoreGrid
{
    std::vector<harness::SweepJob> jobs;
    unsigned workers = 1;
    std::optional<std::uint64_t> base_seed;
    /** Seed each job runs with (profile seed or derived). */
    std::vector<std::uint64_t> seeds;
    /** Distinct profiles: the first this-many jobs keep their memory
     *  addresses for the cache replays. */
    std::size_t profiles = 0;
};

void
resolveSeeds(CoreGrid &g)
{
    for (const harness::SweepJob &job : g.jobs)
        g.seeds.push_back(
            g.base_seed ? harness::deriveJobSeed(
                              *g.base_seed,
                              harness::machineHash(job.machine),
                              job.profile.name)
                        : job.profile.seed);
}

/** Figure 4: (latency × model × width) then the baseline, 78 jobs. */
CoreGrid
fig4Grid(std::uint64_t seed)
{
    CoreGrid g;
    g.workers = 1;
    const auto suite = pairedSuite(trace::integerSuite(), seed);
    g.profiles = suite.size();
    const auto add = [&](const core::MachineConfig &m) {
        for (auto &job : harness::suiteJobs(m, suite, FIG4_INSTS))
            g.jobs.push_back(std::move(job));
    };
    for (const Cycle latency : {Cycle{17}, Cycle{35}})
        for (const auto &base : core::studyModels())
            for (const unsigned width : {1u, 2u})
                add(base.withIssueWidth(width).withLatency(latency));
    // §5 headline statistics come from the unmodified baseline.
    add(core::baselineModel());
    resolveSeeds(g);
    return g;
}

/** Figure 9(a-c): instruction queue, load queue, FPU ROB; 198 jobs. */
CoreGrid
fig9Grid(std::uint64_t seed)
{
    CoreGrid g;
    g.workers = 2;
    g.base_seed = seed;
    const auto suite = trace::floatSuite();
    g.profiles = suite.size();
    const auto add = [&](const core::MachineConfig &m) {
        for (auto &job : harness::suiteJobs(m, suite, FIG9_INSTS))
            g.jobs.push_back(std::move(job));
    };
    auto single = core::baselineModel();
    single.fpu.policy = fpu::IssuePolicy::OutOfOrderSingle;
    for (const unsigned q : {1u, 2u, 3u, 4u, 5u, 7u}) {
        auto s = single;
        s.fpu.inst_queue = q;
        add(s);
        auto d = core::baselineModel();
        d.fpu.inst_queue = q;
        add(d);
    }
    for (const unsigned q : {1u, 2u, 3u, 4u, 5u}) {
        auto m = single;
        m.fpu.load_queue = q;
        add(m);
    }
    for (const unsigned q : {3u, 5u, 7u, 9u, 11u}) {
        auto m = single;
        m.fpu.rob_entries = q;
        add(m);
    }
    resolveSeeds(g);
    return g;
}

struct Pass
{
    double wall_s = 0.0;
    bool ok = false;
    std::vector<core::RunResult> results;
    std::string digest;
};

std::string
digestOf(const std::vector<std::string> &bytes)
{
    Digest d;
    for (const std::string &b : bytes)
        d.add(b);
    return d.hex();
}

std::string
digestOf(const std::vector<core::RunResult> &results)
{
    std::vector<std::string> bytes;
    bytes.reserve(results.size());
    for (const core::RunResult &r : results)
        bytes.push_back(harness::runResultBytes(r));
    return digestOf(bytes);
}

/** Run passes until the next one would overrun @p budget_s (≥ 1). */
template <typename PassFn>
std::vector<Pass>
timedPasses(double budget_s, PassFn &&one_pass)
{
    std::vector<Pass> passes;
    const std::int64_t start = nowNs();
    for (;;) {
        passes.push_back(one_pass(passes.size()));
        const double elapsed =
            static_cast<double>(nowNs() - start) / 1e9;
        if (elapsed + passes.back().wall_s > budget_s)
            break;
    }
    return passes;
}

/** The recorded digest, or else an independent recomputation. */
void
verifyDigest(const Options &opt, const CoreGrid &g,
             const std::string &digest, RunReport &report)
{
    std::string expected = opt.expect_digest;
    if (expected.empty()) {
        // No digest recorded for this seed: recompute every job by
        // calling core::simulate directly with the seed SweepRunner
        // should have resolved.
        std::vector<std::string> bytes(g.jobs.size());
        parallelFor(g.jobs.size(), g.workers, [&](std::size_t i) {
            trace::WorkloadProfile profile = g.jobs[i].profile;
            profile.seed = g.seeds[i];
            bytes[i] = harness::runResultBytes(core::simulate(
                g.jobs[i].machine, profile, g.jobs[i].instructions));
        });
        expected = digestOf(bytes);
    }
    if (digest != expected)
        report.fail("output digest " + digest + " != expected " +
                    expected);
}

/** Σ instructions of @p results. */
double
instructions(const std::vector<core::RunResult> &results)
{
    double n = 0.0;
    for (const core::RunResult &r : results)
        n += static_cast<double>(r.instructions);
    return n;
}

/**
 * End-to-end rows from whole grid passes: each pass is the wall time
 * of one fresh SweepRunner's run() over the whole grid, so preflight,
 * dispatch, worker imbalance and anything run() does before its jobs
 * are all inside it. A "grid" here is the whole grid, one per pass.
 */
void
endToEnd(const std::vector<Pass> &passes, RunReport &report)
{
    std::vector<double> wall_s;
    for (const Pass &p : passes)
        if (p.ok)
            wall_s.push_back(p.wall_s);
    const double grid_s = median(wall_s);
    report.set("sim_minsts_per_s",
               instructions(passes.front().results) / grid_s / 1e6,
               "Minst/s");
    // A run holds too few passes for a latency tail: both rows carry
    // the median pass (perfbench/README.md).
    report.set("grid_done_p50_ms", grid_s * 1e3, "ms");
    report.set("grid_done_p90_ms", grid_s * 1e3, "ms");
    report.set("ok_grids_per_s",
               static_cast<double>(wall_s.size()) /
                   static_cast<double>(passes.size()) / grid_s,
               "1/s");
    report.set("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.grid_samples = wall_s.size();
}

/** Pool overhead and preflight cost from the traced pass spans. */
void
gridSpanRows(const SpanLog &log, unsigned workers, std::size_t n_jobs,
             RunReport &report)
{
    std::map<std::uint64_t, double> busy_of;
    for (const Span &s : log.named("harness.job"))
        busy_of[s.parent] += static_cast<double>(s.durNs());
    std::vector<double> overhead;
    for (const Span &grid : log.named("harness.grid"))
        overhead.push_back(
            100.0 * (1.0 - busy_of[grid.id] /
                               (static_cast<double>(grid.durNs()) *
                                workers)));
    const auto grids = static_cast<double>(log.named("harness.grid").size());
    report.set("analyze.preflight_us_per_job",
               log.totalNs("analyze.preflight") / 1e3 /
                   (grids * static_cast<double>(n_jobs)),
               "us");
    report.set("harness.dispatch_overhead_pct", mean(overhead), "%");
}

} // namespace

std::vector<trace::WorkloadProfile>
pairedSuite(const std::vector<trace::WorkloadProfile> &suite,
            std::uint64_t seed)
{
    std::vector<trace::WorkloadProfile> out = suite;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].seed = mix64(seed * 0x100000001b3ull + i + 1) | 1;
    return out;
}

core::RunResult
runJobSplit(const harness::SweepJob &job, std::uint64_t seed,
            SpanLog *log, std::uint64_t parent, std::uint64_t group,
            std::string &bytes, MemTrace *keep)
{
    trace::WorkloadProfile profile = job.profile;
    profile.seed = seed;
    core::RunResult result;
    std::unique_ptr<trace::VectorTraceSource> source;
    {
        ScopedSpan span(log, "harness.job", parent, group);
        {
            ScopedSpan s(log, "trace.synth", span.id(), group);
            trace::SyntheticWorkload workload(profile);
            source = std::make_unique<trace::VectorTraceSource>(
                trace::collect(workload, job.instructions));
        }
        {
            ScopedSpan s(log, "core.run", span.id(), group);
            core::Processor cpu(job.machine, *source,
                                core::defaultWatchdog());
            result = cpu.run();
        }
        result.benchmark = profile.name;
        {
            ScopedSpan s(log, "harness.result_bytes", span.id(), group);
            bytes = harness::runResultBytes(result);
        }
    }
    if (keep) {
        keep->machine = job.machine;
        for (const trace::Inst &inst : source->insts()) {
            if (trace::isLoad(inst.op))
                keep->loads.push_back(inst.eff_addr);
            else if (trace::isStore(inst.op))
                keep->stores.emplace_back(inst.eff_addr, inst.size);
        }
    }
    return result;
}

double
jobsPerTrace(const std::vector<harness::SweepJob> &jobs,
             const std::vector<std::uint64_t> &seeds)
{
    std::set<std::tuple<std::string, std::uint64_t, Count>> traces;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        traces.emplace(jobs[i].profile.name, seeds[i],
                       jobs[i].instructions);
    return traces.empty() ? 0.0
                          : static_cast<double>(jobs.size()) /
                                static_cast<double>(traces.size());
}

void
jobSpanRows(const SpanLog &log, const std::vector<core::RunResult> &results,
            double jobs_per_trace, RunReport &report)
{
    double insts = 0.0;
    double cycles = 0.0;
    for (const core::RunResult &r : results) {
        insts += static_cast<double>(r.instructions);
        cycles += static_cast<double>(r.cycles);
    }
    const double synth = log.selfNs("trace.synth");
    const double run = log.selfNs("core.run");
    report.set("trace.synth_ns_per_inst", synth / insts, "ns");
    report.set("trace.synth_share_pct",
               100.0 * synth / log.totalNs("harness.job"), "%");
    report.set("trace.jobs_per_trace", jobs_per_trace, "count");
    report.set("core.ns_per_cycle", run / cycles, "ns");
    report.set("core.ns_per_inst", run / insts, "ns");
}

void
runCoreWorkload(const Options &opt, RunReport &report)
{
    const CoreGrid g = opt.workload == "fig4_paired" ? fig4Grid(opt.seed)
                                                     : fig9Grid(opt.seed);
    harness::SweepOptions options;
    options.workers = g.workers;
    options.base_seed = g.base_seed;
    options.retries = 0;
    options.deadline_ms = 0;
    options.backoff_ms = 0;
    options.preflight = true;
    options.model_advice = false;
    if (setupDone(opt, report))
        return;

    // Every pass builds its own SweepRunner inside its timed span, so
    // state a runner builds or fills (a cache, a pool) is paid again
    // by every pass instead of being free after the first.
    const auto untraced = [&](std::size_t) {
        Pass p;
        const std::int64_t t0 = nowNs();
        try {
            harness::SweepRunner runner(options);
            p.results = runner.run(g.jobs);
            p.ok = true;
        } catch (const std::exception &e) {
            report.fail(std::string("grid pass failed: ") + e.what());
        }
        p.wall_s = static_cast<double>(nowNs() - t0) / 1e9;
        report.attempted += g.jobs.size();
        if (!p.ok)
            report.failed += g.jobs.size();
        else
            p.digest = digestOf(p.results);
        return p;
    };

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::vector<Pass> passes = timedPasses(budget, untraced);
    const std::string digest = passes.front().digest;
    for (const Pass &p : passes)
        if (p.ok && p.digest != digest)
            report.fail("grid passes disagree: " + p.digest + " vs " +
                        digest);
    report.digest = digest;
    if (!passes.front().ok)
        return;
    verifyDigest(opt, g, digest, report);

    if (!opt.trace) {
        endToEnd(passes, report);
        return;
    }

    // Traced run: the split path, one span per layer call.
    SpanLog log;
    std::vector<MemTrace> mem(g.profiles);
    std::vector<core::RunResult> traced_results;
    LayerInputs layer_in;
    layer_in.grid_jobs = g.jobs.size();
    const auto traced = [&](std::size_t index) {
        Pass p;
        std::vector<std::string> bytes(g.jobs.size());
        std::vector<std::function<core::RunResult()>> tasks;
        const std::uint64_t group = (index + 1) << 20;
        const std::int64_t t0 = nowNs();
        {
            harness::SweepRunner runner(options);
            ScopedSpan grid(&log, "harness.grid", 0, group);
            {
                ScopedSpan s(&log, "analyze.preflight", grid.id(), group);
                harness::preflightGrid(g.jobs);
            }
            for (std::size_t i = 0; i < g.jobs.size(); ++i)
                tasks.push_back([&, i, parent = grid.id()] {
                    MemTrace *keep =
                        index == 0 && i < mem.size() ? &mem[i] : nullptr;
                    return runJobSplit(g.jobs[i], g.seeds[i], &log,
                                       parent, group + i + 1, bytes[i],
                                       keep);
                });
            p.results = runner.runTasks(tasks);
        }
        p.wall_s = static_cast<double>(nowNs() - t0) / 1e9;
        p.ok = true;
        p.digest = digestOf(bytes);
        report.attempted += g.jobs.size();
        if (index == 0)
            for (std::size_t i = 0; i < p.results.size(); ++i) {
                harness::JournalRecord rec;
                rec.job_index = i;
                rec.machine_hash = harness::machineHash(g.jobs[i].machine);
                rec.seed = g.seeds[i];
                rec.outcome.ok = true;
                rec.outcome.result = p.results[i];
                layer_in.records.push_back(std::move(rec));
            }
        traced_results.insert(traced_results.end(), p.results.begin(),
                              p.results.end());
        return p;
    };
    const std::vector<Pass> traced_passes = timedPasses(budget, traced);
    for (const Pass &p : traced_passes)
        if (p.digest != digest)
            report.fail("traced split path digest " + p.digest +
                        " != untraced " + digest);

    std::vector<double> untraced_wall, traced_wall;
    for (const Pass &p : passes)
        untraced_wall.push_back(p.wall_s);
    for (const Pass &p : traced_passes)
        traced_wall.push_back(p.wall_s);
    report.set("bench.trace_overhead_pct",
               100.0 * (median(traced_wall) / median(untraced_wall) - 1.0),
               "%");

    jobSpanRows(log, traced_results, jobsPerTrace(g.jobs, g.seeds),
                report);
    gridSpanRows(log, g.workers, g.jobs.size(), report);
    exactStats(traced_passes.front().results, report);
    layer_in.mem = std::move(mem);
    measureLayers(layer_in, opt, log, report);
    // In-process grids have no wire and no shard fleet.
    for (const char *row :
         {"serve.submit_to_accepted_ms", "serve.accepted_to_first_result_ms",
          "serve.result_gap_ms"})
        report.set(row, 0, "ms");
    report.set("serve.wire_decode_us", 0, "us");
    report.set("serve.bytes_per_grid", 0, "bytes");
    report.set("shard.respawns", 0, "count");
    report.set("shard.fenced_leases", 0, "count");
    report.set("shard.failed_grids", 0, "count");
    if (!opt.trace_out.empty())
        log.writeChromeTrace(opt.trace_out);
}

} // namespace perfbench
