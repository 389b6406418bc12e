/**
 * @file
 * aurora_perfbench: one benchmark run of one workload.
 *
 *   aurora_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --tmp DIR [--shardd PATH] [--expect-digest HEX]
 *                    [--spawn-ns NS] [--setup-only] [--trace-out FILE]
 *
 * Prints one JSON object on stdout: correctness, job counts, the
 * output digest, and every metric with its unit — the end-to-end set
 * untraced, the per-layer set traced. perfbench/run.py builds this
 * binary, launches it, and turns that object into the benchmark's
 * result line. Exit status 0 = ran and every output checked; 1 = a
 * correctness check failed; 2 = bad usage or a host too small.
 */

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "telemetry/json.hh"

namespace perfbench
{

namespace
{

std::int64_t g_start_ns = 0;

/** Worker threads (fig) or shard processes (serve) a workload uses. */
int
parallelism(const std::string &workload)
{
    if (workload == "fig4_paired")
        return 1;
    if (workload == "fig9_fp_seeded" || workload == "serve_fleet")
        return 2;
    return 0;
}

int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

std::string
quote(const std::string &s)
{
    return "\"" + aurora::telemetry::jsonEscape(s) + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
print(RunReport &report, const Options &opt)
{
    for (auto &[name, m] : report.metrics)
        if (!std::isfinite(m.value)) {
            report.fail("metric " + name + " is not finite");
            m.value = 0.0;
        }
    std::ostringstream os;
    os << "{\"correct\":" << (report.correct ? "true" : "false")
       << ",\"attempted\":" << report.attempted
       << ",\"failed\":" << report.failed
       << ",\"digest\":" << quote(report.digest) << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        os << (first ? "" : ",") << quote(name) << ":{\"value\":"
           << number(m.value) << ",\"unit\":" << quote(m.unit) << "}";
        first = false;
    }
    os << "},\"failure_codes\":{";
    first = true;
    for (const auto &[code, n] : report.failure_codes) {
        os << (first ? "" : ",") << quote(code) << ":" << n;
        first = false;
    }
    os << "},\"notes\":[";
    first = true;
    for (const std::string &note : report.notes) {
        os << (first ? "" : ",") << quote(note);
        first = false;
    }
    os << "],\"context\":{\"workload\":" << quote(opt.workload)
       << ",\"seed\":" << opt.seed
       << ",\"parallelism\":" << parallelism(opt.workload)
       << ",\"grid_samples\":" << report.grid_samples
       << ",\"nproc\":" << hostCpus()
       << ",\"compiler\":" << quote(__VERSION__)
       << ",\"cxx_flags\":" << quote(PERFBENCH_CXX_FLAGS)
       << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE) << "}}";
    std::cout << os.str() << std::endl;
}

int
usage(const std::string &why)
{
    std::cerr << "aurora_perfbench: " << why << "\n";
    return 2;
}

} // namespace

bool
setupDone(const Options &opt, RunReport &report)
{
    report.set("setup_s", static_cast<double>(nowNs() - g_start_ns) / 1e9,
               "s");
    return opt.setup_only;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    g_start_ns = nowNs();
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--workload")
                opt.workload = value();
            else if (arg == "--seed")
                opt.seed = std::stoull(value());
            else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace")
                opt.trace = value() == "1";
            else if (arg == "--setup-only")
                opt.setup_only = true;
            else if (arg == "--spawn-ns")
                opt.spawn_ns = std::stoll(value());
            else if (arg == "--expect-digest")
                opt.expect_digest = value();
            else if (arg == "--tmp")
                opt.tmp_dir = value();
            else if (arg == "--shardd")
                opt.shardd = value();
            else if (arg == "--trace-out")
                opt.trace_out = value();
            else
                throw std::invalid_argument("unknown argument " + arg);
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (opt.spawn_ns > 0)
        g_start_ns = opt.spawn_ns;

    const int needed = parallelism(opt.workload);
    if (needed == 0)
        return usage("unknown workload '" + opt.workload + "'");
    if (needed > hostCpus())
        return usage("workload " + opt.workload + " uses " +
                     std::to_string(needed) + " workers but this host has " +
                     std::to_string(hostCpus()) +
                     " CPUs; refusing to measure an oversubscribed host");
    if (opt.tmp_dir.empty() || !(opt.seconds > 0))
        return usage("--tmp and a positive --seconds are required");
    if (opt.workload == "serve_fleet" && opt.shardd.empty())
        return usage("serve_fleet needs --shardd");
    std::filesystem::create_directories(opt.tmp_dir);

    RunReport report;
    try {
        if (opt.workload == "serve_fleet")
            runServeWorkload(opt, report);
        else
            runCoreWorkload(opt, report);
        if (!opt.trace && !opt.setup_only)
            report.set("paper_hit_err_pct", paperHitErrPct(), "%");
    } catch (const std::exception &e) {
        report.fail(std::string("run aborted: ") + e.what());
    }
    print(report, opt);
    return report.correct ? 0 : 1;
}
