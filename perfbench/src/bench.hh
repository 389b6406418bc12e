/**
 * @file
 * Workload entry points and the pieces they share: the paired input
 * suite, the split (synthesize → simulate → serialize) job path of a
 * traced run, and the per-layer microbenchmarks over a run's records.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "spans.hh"

namespace perfbench
{

/**
 * Called once set-up is over, immediately before the first timed call.
 * Records setup_s (spawn → now). Returns true when the process was
 * asked to stop there (--setup-only).
 */
bool setupDone(const Options &opt, RunReport &report);

/** fig4_paired and fig9_fp_seeded. */
void runCoreWorkload(const Options &opt, RunReport &report);

/** serve_fleet. */
void runServeWorkload(const Options &opt, RunReport &report);

/**
 * @p suite with every profile's seed derived from @p seed, so each
 * machine that runs the suite replays the same traces (paired, as in
 * the paper).
 */
std::vector<aurora::trace::WorkloadProfile>
pairedSuite(const std::vector<aurora::trace::WorkloadProfile> &suite,
            std::uint64_t seed);

/** Load and store addresses of one job, for the cache replays. */
struct MemTrace
{
    aurora::core::MachineConfig machine;
    std::vector<aurora::Addr> loads;
    std::vector<std::pair<aurora::Addr, unsigned>> stores;
};

/**
 * core::simulate's path with the generator pulled out: drain the
 * job's SyntheticWorkload into a VectorTraceSource (span trace.synth),
 * run core::Processor over it (core.run), and serialize the result
 * with runResultBytes (harness.result_bytes), all under one
 * harness.job span. Gives results bit-identical to core::simulate.
 * With a null @p log no spans are recorded. When @p keep is non-null
 * the job's memory addresses are copied out after the job span.
 */
aurora::core::RunResult
runJobSplit(const aurora::harness::SweepJob &job, std::uint64_t seed,
            SpanLog *log, std::uint64_t parent, std::uint64_t group,
            std::string &bytes, MemTrace *keep = nullptr);

/** Inputs of the per-layer microbenchmarks: the run's own records. */
struct LayerInputs
{
    /** Every job record of the run, ok or not, in grid order. */
    std::vector<aurora::harness::JournalRecord> records;
    /** Jobs in one grid (merge and wire rows use one grid's worth). */
    std::size_t grid_jobs = 0;
    std::vector<MemTrace> mem;
};

/**
 * Time the library calls each layer makes per job on the run's real
 * records: cache and write-cache replay, journal encode/append, frame
 * codec, shard merge and wire round trip, flight-recorder notes.
 * Each batch of calls is one span in @p log.
 */
void measureLayers(const LayerInputs &in, const Options &opt,
                   SpanLog &log, RunReport &report);

/**
 * The trace-side rows of a traced run from its harness.job spans:
 * synthesis cost per instruction and share of job time, cycle-loop
 * cost per cycle and per instruction, and jobs per distinct trace.
 */
void jobSpanRows(const SpanLog &log,
                 const std::vector<aurora::core::RunResult> &results,
                 double jobs_per_trace, RunReport &report);

/** Jobs ÷ distinct (profile, seed, instructions) in @p jobs. */
double
jobsPerTrace(const std::vector<aurora::harness::SweepJob> &jobs,
             const std::vector<std::uint64_t> &seeds);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
