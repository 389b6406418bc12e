#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <numeric>

#include "core/machine_config.hh"
#include "core/simulator.hh"
#include "trace/spec_profiles.hh"

namespace perfbench
{

using aurora::core::RunResult;
using aurora::core::StallCause;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Digest::byte(unsigned char c)
{
    h_ ^= c;
    h_ *= 1099511628211ull;
}

void
Digest::add(const std::string &bytes)
{
    std::uint64_t len = bytes.size();
    for (int i = 0; i < 8; ++i, len >>= 8)
        byte(static_cast<unsigned char>(len & 0xff));
    for (const char c : bytes)
        byte(static_cast<unsigned char>(c));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
peakRssMb()
{
    // VmHWM, not getrusage(RUSAGE_SELF): ru_maxrss survives execve, so
    // it would report the launcher's footprint at fork time.
    long self_kb = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            self_kb = std::stol(line.substr(6));
    // Children (shard workers) are measured at exit; their figure is
    // at least our footprint when they forked, never more than ours.
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self_kb, children.ru_maxrss)) /
           1024.0;
}

void
exactStats(const std::vector<RunResult> &results, RunReport &report)
{
    double cycles = 0.0;
    double stall_cycles = 0.0;
    std::vector<double> cpi, icache, dcache, dprefetch, wcache;
    std::vector<double> rob, mshr, instq, loadq;
    std::vector<std::vector<double>> stall_cpi(
        aurora::core::NUM_STALL_CAUSES);
    for (const RunResult &r : results) {
        cycles += static_cast<double>(r.cycles);
        for (const auto s : r.stalls)
            stall_cycles += static_cast<double>(s);
        cpi.push_back(r.cpi());
        for (std::size_t c = 0; c < stall_cpi.size(); ++c)
            stall_cpi[c].push_back(
                r.stallCpi(static_cast<StallCause>(c)));
        icache.push_back(r.icache_hit_pct);
        dcache.push_back(r.dcache_hit_pct);
        dprefetch.push_back(r.dprefetch_hit_pct);
        wcache.push_back(r.write_cache_hit_pct);
        rob.push_back(static_cast<double>(r.rob_occupancy.p95));
        mshr.push_back(static_cast<double>(r.mshr_occupancy.p95));
        instq.push_back(static_cast<double>(r.fp_instq_occupancy.p95));
        loadq.push_back(static_cast<double>(r.fp_loadq_occupancy.p95));
    }
    report.set("core.sim_cycles", cycles, "count");
    report.set("core.stall_cycle_pct",
               cycles > 0 ? 100.0 * stall_cycles / cycles : 0.0, "%");
    const char *causes[] = {"icache", "load", "lsu_busy", "rob_full",
                            "fp_queue"};
    static_assert(std::size(causes) == aurora::core::NUM_STALL_CAUSES);
    for (std::size_t c = 0; c < stall_cpi.size(); ++c)
        report.set(std::string("core.stall_cpi.") + causes[c],
                   mean(stall_cpi[c]), "cpi");
    report.set("core.cpi_mean", mean(cpi), "cpi");
    report.set("mem.icache_hit_pct", mean(icache), "%");
    report.set("mem.dcache_hit_pct", mean(dcache), "%");
    report.set("mem.dprefetch_hit_pct", mean(dprefetch), "%");
    report.set("mem.write_cache_hit_pct", mean(wcache), "%");
    report.set("ipu.rob_occupancy_p95", mean(rob), "entries");
    report.set("ipu.mshr_occupancy_p95", mean(mshr), "entries");
    report.set("fpu.instq_occupancy_p95", mean(instq), "entries");
    report.set("fpu.loadq_occupancy_p95", mean(loadq), "entries");
}

double
paperHitErrPct()
{
    constexpr double PAPER_ICACHE_HIT = 96.5;
    constexpr double PAPER_DCACHE_HIT = 95.4;
    constexpr aurora::Count INSTS = 200'000;
    std::vector<double> ic, dc;
    for (const auto &profile : aurora::trace::integerSuite()) {
        const RunResult r =
            aurora::core::simulate(aurora::core::baselineModel(), profile,
                                   INSTS);
        ic.push_back(r.icache_hit_pct);
        dc.push_back(r.dcache_hit_pct);
    }
    return 0.5 * (std::fabs(mean(ic) - PAPER_ICACHE_HIT) +
                  std::fabs(mean(dc) - PAPER_DCACHE_HIT));
}

} // namespace perfbench
