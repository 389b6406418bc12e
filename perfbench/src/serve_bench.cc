/**
 * @file
 * serve_fleet: an in-process serve::Server dealing grids to a fleet of
 * two exec'd aurora_shardd processes, driven by a closed loop of two
 * tenant connections held by one benchmark thread. Each tenant sends
 * its next Submit when its previous GridDone arrives. A grid is the
 * baseline machine over the six integer profiles at short runs, with
 * a base seed mixed from --seed and the grid index, so every grid
 * fingerprint is unique and per-job overhead dominates.
 *
 * A run submits a fixed number of grids, set by --seconds at a nominal
 * rate rather than by a clock, so the grids (and which of them hit the
 * known AUR306 defect) are the same in every run with the same
 * arguments.
 *
 * Every failed grid is reported with its AUR code and counted; the
 * benchmark neither retries it nor touches the fleet. Every ok result
 * is checked by re-simulating its job in-process.
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "bench.hh"
#include "core/config_io.hh"
#include "core/machine_config.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "telemetry/json.hh"
#include "trace/spec_profiles.hh"
#include "util/parallel.hh"
#include "util/socket.hh"

namespace perfbench
{

using namespace aurora;
namespace wire = serve::wire;

namespace
{

constexpr Count SERVE_INSTS = 5'000;
constexpr unsigned SHARDS = 2;
constexpr unsigned TENANTS = 2;
/**
 * Grids per second of --seconds: about the closed loop's rate on a
 * loaded 4-vCPU host (23-31 measured), so a run lasts about --seconds
 * there.
 */
constexpr double GRIDS_PER_SECOND = 25.0;
/** A loop that outlives its nominal length by this much has stalled. */
constexpr std::int64_t STALL_NS = 60'000'000'000;

/** One submitted grid as the client saw it. */
struct GridRun
{
    std::uint64_t index = 0;
    std::uint64_t base_seed = 0;
    std::uint64_t fingerprint = 0;
    std::int64_t submit_ns = 0;
    std::int64_t accepted_ns = 0;
    std::int64_t done_ns = 0;
    std::vector<std::int64_t> result_ns;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    /** AUR code (or error class) of a failed or rejected grid. */
    std::string code;
    std::string error;
    double bytes = 0.0;
};

/** An ok job as served, for the in-process re-simulation. */
struct OkJob
{
    /** Span group: the grid index + 1. */
    std::uint64_t group = 0;
    std::size_t job_index = 0;
    std::uint64_t seed = 0;
};

/** What one closed-loop run leaves for the checks and the rows. */
struct LoopRun
{
    std::vector<GridRun> grids;
    double wall_s = 0.0;
    /** Every ok Result in arrival order, and the digest of its bytes. */
    std::vector<OkJob> ok;
    std::string served;
    /** Every record received; kept only by a traced run. */
    std::vector<harness::JournalRecord> records;
};

struct Tenant
{
    util::Fd fd;
    wire::FrameDecoder decoder;
    GridRun grid;
    bool active = false;
};

/** Server on its own thread; drains and joins on destruction. */
class Host
{
  public:
    explicit Host(serve::ServerConfig config)
        : server_(std::make_unique<serve::Server>(std::move(config))),
          thread_([this] {
              try {
                  server_->run();
              } catch (const std::exception &e) {
                  error_ = e.what();
              }
          })
    {}

    ~Host() { stop(); }

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    /** Drain and join the daemon; returns what run() threw, if anything. */
    std::string
    stop()
    {
        if (thread_.joinable()) {
            server_->requestDrain();
            thread_.join();
        }
        return error_;
    }

  private:
    std::unique_ptr<serve::Server> server_;
    std::string error_;
    std::thread thread_;
};

/** The first AURnnn catalog ID in @p error, else the error class. */
std::string
aurCode(const std::string &error, util::SimErrorCode code)
{
    for (std::size_t at = error.find("AUR"); at != std::string::npos;
         at = error.find("AUR", at + 1)) {
        const std::string id = error.substr(at, 6);
        if (id.size() == 6 &&
            std::all_of(id.begin() + 3, id.end(),
                        [](char c) { return c >= '0' && c <= '9'; }))
            return id;
    }
    return util::errorCodeName(code);
}

/** One grid: the baseline over the integer suite. */
std::vector<harness::SweepJob>
gridJobs()
{
    return harness::suiteJobs(core::baselineModel(), trace::integerSuite(),
                              SERVE_INSTS);
}

class ClosedLoop
{
  public:
    ClosedLoop(std::vector<Tenant> &tenants, const Options &opt,
               RunReport &report)
        : tenants_(tenants), opt_(opt), report_(report),
          spec_(core::describe(core::baselineModel())), jobs_(gridJobs()),
          machine_hash_(harness::machineHash(jobs_.front().machine))
    {}

    /**
     * Drive every tenant until @p grids grids have finished; @p seconds
     * is the nominal length, for the stall check. A traced run (@p log
     * non-null) records spans and keeps every record; an untraced one
     * keeps only what the checks need, so the client's footprint stays
     * small.
     */
    LoopRun
    run(std::uint64_t grids, double seconds, SpanLog *log)
    {
        log_ = log;
        out_ = LoopRun{};
        served_ = Digest{};
        start_ = nowNs();
        budget_ns_ = static_cast<std::int64_t>(seconds * 1e9);
        end_index_ = next_index_ + grids;
        for (Tenant &t : tenants_)
            if (next_index_ < end_index_)
                submit(t);
        while (!stalled_ && anyActive())
            pump();
        out_.wall_s = static_cast<double>(nowNs() - start_) / 1e9;
        out_.served = served_.hex();
        return std::move(out_);
    }

  private:
    bool
    anyActive() const
    {
        for (const Tenant &t : tenants_)
            if (t.active)
                return true;
        return false;
    }

    void
    submit(Tenant &t)
    {
        t.grid = GridRun{};
        t.grid.index = next_index_++;
        t.grid.base_seed = mix64(opt_.seed ^ mix64(t.grid.index + 1));
        wire::SubmitMsg msg;
        msg.label = "g" + std::to_string(t.grid.index);
        msg.has_base_seed = true;
        msg.base_seed = t.grid.base_seed;
        for (const harness::SweepJob &job : jobs_)
            msg.jobs.push_back({spec_, job.profile.name, SERVE_INSTS});
        const std::string frame = wire::frame(wire::encode(msg));
        t.grid.bytes += static_cast<double>(frame.size());
        t.grid.submit_ns = nowNs();
        util::writeAll(t.fd.get(), frame);
        t.active = true;
    }

    void
    finish(Tenant &t)
    {
        GridRun &g = t.grid;
        g.done_ns = nowNs();
        if (g.failed > 0) {
            ++report_.failure_codes[g.code];
            report_.notes.push_back(
                "grid " + std::to_string(g.index) + " failed " +
                std::to_string(g.failed) + "/" +
                std::to_string(jobs_.size()) + " jobs: " + g.code +
                ": " + g.error);
        }
        if (log_) {
            Span span;
            span.name = "serve.grid";
            span.id = log_->nextId();
            span.group = g.index + 1;
            span.start_ns = g.submit_ns;
            span.end_ns = g.done_ns;
            log_->record(std::move(span));
        }
        report_.attempted += jobs_.size();
        report_.failed += g.failed;
        out_.grids.push_back(std::move(g));
        if (next_index_ < end_index_)
            submit(t);
        else
            t.active = false;
    }

    void
    pump()
    {
        std::vector<pollfd> fds;
        for (Tenant &t : tenants_)
            fds.push_back(pollfd{t.fd.get(), POLLIN, 0});
        const int rc = ::poll(fds.data(), fds.size(), 1000);
        if (rc < 0 && errno != EINTR) {
            fail("poll failed");
            return;
        }
        if (nowNs() - start_ > budget_ns_ + STALL_NS) {
            fail("closed loop stalled: a grid never finished");
            return;
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Tenant &t = tenants_[i];
            char buf[65536];
            const ssize_t got = ::read(t.fd.get(), buf, sizeof buf);
            if (got <= 0) {
                fail("daemon closed a tenant connection");
                return;
            }
            t.decoder.feed(buf, static_cast<std::size_t>(got));
            std::string payload;
            for (;;) {
                const util::FrameStatus st = t.decoder.next(payload);
                if (st == util::FrameStatus::NeedMore)
                    break;
                if (st == util::FrameStatus::Corrupt) {
                    fail("corrupt frame from the daemon");
                    return;
                }
                t.grid.bytes += static_cast<double>(
                    payload.size() + util::FRAME_HEADER_BYTES);
                handle(t, payload);
            }
        }
    }

    /** Run a decode under a serve.wire_decode span of the grid. */
    template <typename Fn>
    auto
    decode(const GridRun &g, Fn &&fn)
    {
        ScopedSpan span(log_, "serve.wire_decode", 0, g.index + 1);
        return fn();
    }

    void
    handle(Tenant &t, const std::string &payload)
    {
        GridRun &g = t.grid;
        const std::int64_t now = nowNs();
        switch (wire::peekType(payload)) {
          case wire::MsgType::Accepted: {
            const auto msg =
                decode(g, [&] { return wire::decodeAccepted(payload); });
            g.accepted_ns = now;
            g.fingerprint = msg.fingerprint;
            if (msg.attached)
                fail("grid " + std::to_string(g.index) +
                     " attached to an existing grid: fingerprints "
                     "must be unique");
            break;
          }
          case wire::MsgType::Rejected: {
            const auto msg =
                decode(g, [&] { return wire::decodeRejected(payload); });
            g.failed = jobs_.size();
            g.code = msg.id;
            g.error = msg.message;
            finish(t);
            break;
          }
          case wire::MsgType::Result: {
            std::uint64_t fingerprint = 0;
            harness::JournalRecord rec = decode(g, [&] {
                const auto msg = wire::decodeResult(payload);
                fingerprint = msg.fingerprint;
                return harness::decodeJournalRecord(msg.record);
            });
            if (fingerprint != g.fingerprint)
                break;
            g.result_ns.push_back(now);
            if (rec.outcome.ok) {
                const std::string &name =
                    jobs_.at(rec.job_index).profile.name;
                if (rec.seed != harness::deriveJobSeed(g.base_seed,
                                                       machine_hash_, name))
                    report_.fail("grid " + std::to_string(g.index) +
                                 " job " + std::to_string(rec.job_index) +
                                 " ran with a foreign seed");
                served_.add(harness::runResultBytes(rec.outcome.result));
                out_.ok.push_back({g.index + 1, rec.job_index, rec.seed});
            } else if (g.code.empty()) {
                g.code = aurCode(rec.outcome.error, rec.outcome.code);
                g.error = rec.outcome.error;
            }
            if (log_)
                out_.records.push_back(std::move(rec));
            break;
          }
          case wire::MsgType::GridDone: {
            const auto msg =
                decode(g, [&] { return wire::decodeGridDone(payload); });
            if (msg.fingerprint != g.fingerprint)
                break;
            g.ok = msg.ok;
            g.failed = msg.failed + msg.timed_out + msg.cancelled;
            if (g.ok + g.failed != jobs_.size() ||
                g.result_ns.size() != jobs_.size())
                fail("grid " + std::to_string(g.index) + " ended with " +
                     std::to_string(g.result_ns.size()) + " results, ok=" +
                     std::to_string(g.ok) +
                     " failed=" + std::to_string(g.failed));
            finish(t);
            break;
          }
          case wire::MsgType::Draining:
            fail("daemon started draining mid-run");
            break;
          default:
            break;
        }
    }

    void
    fail(const std::string &why)
    {
        report_.fail(why);
        stalled_ = true;
    }

    std::vector<Tenant> &tenants_;
    const Options &opt_;
    RunReport &report_;
    const std::string spec_;
    const std::vector<harness::SweepJob> jobs_;
    const std::uint64_t machine_hash_;
    SpanLog *log_ = nullptr;
    LoopRun out_;
    Digest served_;
    std::uint64_t next_index_ = 0;
    std::uint64_t end_index_ = 0;
    std::int64_t start_ = 0;
    std::int64_t budget_ns_ = 0;
    bool stalled_ = false;
};

/** Counters from the daemon's Metrics reply (JSON exposition). */
std::map<std::string, double>
daemonCounters(Tenant &t, RunReport &report)
{
    std::map<std::string, double> out;
    util::writeAll(t.fd.get(),
                   wire::frame(wire::encode(
                       wire::MetricsMsg{wire::MetricsFormat::Json})));
    for (;;) {
        const auto payload = wire::recvFrame(t.fd.get(), t.decoder, 30'000);
        if (!payload) {
            report.fail("no Metrics reply from the daemon");
            return out;
        }
        if (wire::peekType(*payload) != wire::MsgType::MetricsReport)
            continue;
        const auto doc =
            telemetry::parseJson(wire::decodeMetricsReport(*payload).body);
        const telemetry::JsonValue *counters =
            doc ? doc->find("counters") : nullptr;
        if (!counters || !counters->isArray()) {
            report.fail("malformed Metrics reply");
            return out;
        }
        for (const telemetry::JsonValue &c : counters->array) {
            const auto *name = c.find("name");
            const auto *value = c.find("value");
            if (name && value && name->isString() && value->isNumber())
                out[name->string] = value->number;
        }
        return out;
    }
}

/**
 * Re-simulate every ok job of @p loop in-process and compare its
 * digest with the served one; returns the results in arrival order.
 * With a span log this is also the traced run's split-path sample of
 * the core layers.
 */
std::vector<core::RunResult>
verify(const LoopRun &loop, SpanLog *log, std::vector<MemTrace> *mem,
       RunReport &report)
{
    const std::vector<harness::SweepJob> jobs = gridJobs();
    const std::vector<OkJob> &ok = loop.ok;
    std::vector<std::string> want(ok.size());
    std::vector<core::RunResult> results(ok.size());
    if (mem)
        mem->resize(std::min(ok.size(), jobs.size()));
    parallelFor(ok.size(), SHARDS, [&](std::size_t i) {
        results[i] = runJobSplit(jobs.at(ok[i].job_index), ok[i].seed, log,
                                 0, ok[i].group, want[i],
                                 mem && i < mem->size() ? &(*mem)[i]
                                                        : nullptr);
    });
    Digest reference;
    for (const std::string &bytes : want)
        reference.add(bytes);
    report.digest = loop.served;
    if (loop.served != reference.hex())
        report.fail("served results digest " + loop.served +
                    " != in-process re-simulation " + reference.hex());
    return results;
}

void
endToEnd(const LoopRun &loop, const std::vector<core::RunResult> &ok_results,
         double peak_rss_mb, RunReport &report)
{
    std::vector<double> done;
    std::size_t ok_grids = 0;
    for (const GridRun &g : loop.grids) {
        done.push_back(static_cast<double>(g.done_ns - g.submit_ns) / 1e6);
        if (g.failed == 0)
            ++ok_grids;
    }
    double insts = 0.0;
    for (const core::RunResult &r : ok_results)
        insts += static_cast<double>(r.instructions);
    report.set("sim_minsts_per_s", insts / loop.wall_s / 1e6, "Minst/s");
    report.set("grid_done_p50_ms", median(done), "ms");
    report.set("grid_done_p90_ms", percentile(done, 0.9), "ms");
    report.set("ok_grids_per_s",
               static_cast<double>(ok_grids) / loop.wall_s, "1/s");
    report.set("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
    report.set("peak_rss_mb", peak_rss_mb, "MB");
    report.grid_samples = loop.grids.size();
}

void
layerRows(const LoopRun &loop, const SpanLog &log, RunReport &report)
{
    std::vector<double> accepted, first, gaps, bytes;
    double job_seconds = 0.0;
    for (const harness::JournalRecord &r : loop.records)
        job_seconds += r.outcome.seconds;
    for (const GridRun &g : loop.grids) {
        bytes.push_back(g.bytes);
        if (g.accepted_ns == 0)
            continue;
        accepted.push_back(
            static_cast<double>(g.accepted_ns - g.submit_ns) / 1e6);
        if (g.result_ns.empty())
            continue;
        first.push_back(
            static_cast<double>(g.result_ns.front() - g.accepted_ns) / 1e6);
        for (std::size_t i = 1; i < g.result_ns.size(); ++i)
            gaps.push_back(
                static_cast<double>(g.result_ns[i] - g.result_ns[i - 1]) /
                1e6);
    }
    report.set("serve.submit_to_accepted_ms", median(accepted), "ms");
    report.set("serve.accepted_to_first_result_ms", median(first), "ms");
    report.set("serve.result_gap_ms", median(gaps), "ms");
    // Median, not mean: a decode preempted mid-span would otherwise
    // stand for thousands of undisturbed ones.
    std::vector<double> decodes;
    for (const Span &s : log.named("serve.wire_decode"))
        decodes.push_back(static_cast<double>(s.durNs()) / 1e3);
    report.set("serve.wire_decode_us", median(decodes), "us");
    report.set("serve.bytes_per_grid", mean(bytes), "bytes");
    report.set("harness.dispatch_overhead_pct",
               100.0 * (1.0 - job_seconds / (loop.wall_s * SHARDS)), "%");
    const double jobs =
        static_cast<double>(loop.grids.size() * gridJobs().size());
    report.set("analyze.preflight_us_per_job",
               log.totalNs("analyze.preflight") / 1e3 / jobs, "us");
}

} // namespace

void
runServeWorkload(const Options &opt, RunReport &report)
{
    serve::ServerConfig config;
    config.socket_path = opt.tmp_dir + "/serve.sock";
    config.spool_dir = opt.tmp_dir + "/spool";
    config.shards = SHARDS;
    config.shardd_path = opt.shardd;
    if (std::filesystem::exists(config.spool_dir)) {
        // A leftover spool would resume old grids and refuse new ones.
        report.fail("spool " + config.spool_dir + " already exists");
        return;
    }
    Host host(config);
    std::vector<Tenant> tenants(TENANTS);
    for (unsigned i = 0; i < TENANTS; ++i) {
        Tenant &t = tenants[i];
        t.fd = util::connectUnix(config.socket_path);
        wire::HelloMsg hello;
        hello.tenant = "tenant" + std::to_string(i);
        util::writeAll(t.fd.get(), wire::frame(wire::encode(hello)));
        const auto reply = wire::recvFrame(t.fd.get(), t.decoder, 30'000);
        if (!reply || wire::peekType(*reply) != wire::MsgType::Welcome) {
            report.fail("no Welcome from the daemon");
            return;
        }
    }
    if (setupDone(opt, report))
        return;

    ClosedLoop loop(tenants, opt, report);
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const auto grids = std::max<std::uint64_t>(
        TENANTS, static_cast<std::uint64_t>(budget * GRIDS_PER_SECOND + 0.5));
    const LoopRun untraced = loop.run(grids, budget, nullptr);

    SpanLog log;
    LoopRun traced;
    if (opt.trace && report.correct)
        traced = loop.run(grids, budget, &log);
    const std::map<std::string, double> counters =
        daemonCounters(tenants.front(), report);
    tenants.clear();
    const std::string daemon_error = host.stop();
    if (!daemon_error.empty())
        report.fail("daemon stopped with: " + daemon_error);
    // Before the checks below allocate: the daemon's footprint (and
    // its reaped shards') plus the client's small per-grid state.
    const double peak_rss_mb = peakRssMb();

    std::size_t ok_jobs = 0;
    std::size_t failed_grids = 0;
    for (const LoopRun *run : {&untraced, &std::as_const(traced)})
        for (const GridRun &g : run->grids) {
            ok_jobs += g.ok;
            failed_grids += g.failed > 0;
        }
    // The daemon counts a job committed exactly when the client saw it
    // finish ok; any other balance means a result went missing.
    const auto committed = counters.count("fleet.committed")
                               ? counters.at("fleet.committed")
                               : 0.0;
    if (committed != static_cast<double>(ok_jobs))
        report.fail("daemon committed " + std::to_string(committed) +
                    " jobs but the client saw " + std::to_string(ok_jobs) +
                    " ok");

    if (!opt.trace) {
        const auto ok_results = verify(untraced, nullptr, nullptr, report);
        endToEnd(untraced, ok_results, peak_rss_mb, report);
        return;
    }

    verify(untraced, nullptr, nullptr, report);
    const std::string untraced_digest = report.digest;
    const std::vector<harness::SweepJob> grid_jobs = gridJobs();
    for (const GridRun &g : traced.grids) {
        ScopedSpan span(&log, "analyze.preflight", 0, g.index + 1);
        harness::preflightGrid(grid_jobs);
    }
    std::vector<MemTrace> mem;
    const auto results = verify(traced, &log, &mem, report);
    report.digest = untraced_digest + "+" + report.digest;
    report.set("bench.trace_overhead_pct",
               100.0 * ((traced.wall_s /
                         static_cast<double>(traced.grids.size())) /
                            (untraced.wall_s /
                             static_cast<double>(untraced.grids.size())) -
                        1.0),
               "%");

    std::vector<harness::SweepJob> jobs;
    std::vector<std::uint64_t> seeds;
    for (const harness::JournalRecord &rec : traced.records) {
        jobs.push_back(grid_jobs.at(rec.job_index));
        seeds.push_back(rec.seed);
    }
    jobSpanRows(log, results, jobsPerTrace(jobs, seeds), report);
    layerRows(traced, log, report);
    exactStats(results, report);
    LayerInputs layer_in;
    layer_in.grid_jobs = grid_jobs.size();
    layer_in.records = traced.records;
    layer_in.mem = std::move(mem);
    measureLayers(layer_in, opt, log, report);
    const auto counter = [&](const char *name) {
        return counters.count(name) ? counters.at(name) : 0.0;
    };
    report.set("shard.respawns", counter("fleet.respawns"), "count");
    report.set("shard.fenced_leases",
               counter("fleet.lease_expiries") + counter("fleet.shard_exits"),
               "count");
    report.set("shard.failed_grids", static_cast<double>(failed_grids),
               "count");
    if (!opt.trace_out.empty())
        log.writeChromeTrace(opt.trace_out);
}

} // namespace perfbench
