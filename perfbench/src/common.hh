/**
 * @file
 * Shared plumbing of the benchmark binary: run options, the metric
 * sheet a run fills in, order statistics, the output digest, and the
 * host probes (clock, peak RSS).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/processor.hh"

namespace perfbench
{

/** Monotonic nanoseconds; the same clock as Python's time.monotonic_ns. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Stop right after set-up and report only its duration. */
    bool setup_only = false;
    /** Monotonic time the launcher spawned this process (0 = unknown:
     *  set-up is then timed from main()). */
    std::int64_t spawn_ns = 0;
    /** Recorded digest for (workload, seed); empty = none recorded,
     *  so the run recomputes every output by an independent path. */
    std::string expect_digest;
    /** Scratch directory for sockets, spools and journals. */
    std::string tmp_dir;
    /** aurora_shardd binary (serve_fleet). */
    std::string shardd;
    /** Chrome trace written by a traced run (empty = none). */
    std::string trace_out;
};

/** One named measurement with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one run reports back to the launcher. */
struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    /** Grids behind the grid_done rows (passes on a core workload). */
    std::uint64_t grid_samples = 0;
    std::map<std::string, Metric> metrics;
    /** Human-readable findings (failed grids, mismatches). */
    std::vector<std::string> notes;
    /** Failed grids per AUR catalog code. */
    std::map<std::string, std::uint64_t> failure_codes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a broken correctness check. */
    void
    fail(const std::string &why)
    {
        correct = false;
        notes.push_back(why);
    }
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double q);

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &v);

/** splitmix64 finalizer: the benchmark's own input-seed mixer. */
std::uint64_t mix64(std::uint64_t x);

/**
 * FNV-1a 64 over a sequence of length-prefixed byte strings, so
 * ("ab","c") and ("a","bc") digest differently.
 */
class Digest
{
  public:
    void add(const std::string &bytes);
    std::string hex() const;

  private:
    void byte(unsigned char c);
    std::uint64_t h_ = 14695981039346656037ull;
};

/** Peak RSS of this process or any waited-for child, in MiB. */
double peakRssMb();

/**
 * Exact simulated statistics over a set of results — the model-side
 * per-layer rows (stall CPI stack, hit rates, occupancy tails). These
 * must not move under a change meant only to speed the simulator up.
 */
void exactStats(const std::vector<aurora::core::RunResult> &results,
                RunReport &report);

/**
 * Mean absolute error (percentage points) of the baseline model's
 * suite-mean I- and D-cache hit rates against the paper's §5.1
 * 96.5% / 95.4% — the only reference numbers the repository holds.
 * Simulates the accuracy slice: the baseline over the integer suite
 * at 200k instructions with the profiles' own seeds, the instances
 * the workload generator was calibrated on. Seed-derived instances
 * spread too widely for a bounded metric (perfbench/README.md), so
 * the figure depends on neither the workload nor --seed.
 */
double paperHitErrPct();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
