/**
 * @file
 * Coordinator supervision tests: lease fencing and migration under
 * each scripted ShardFault, the zombie-append refusal (AUR304), the
 * commit journal's resume path, configuration rejection, and the
 * external-fleet loss timeout.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/config_io.hh"
#include "faultinject/faultinject.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "obs/trace.hh"
#include "shard/shard_journal.hh"
#include "shard/shardd.hh"
#include "shard/swarm.hh"
#include "trace/spec_profiles.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"

namespace
{

namespace fs = std::filesystem;
using namespace aurora;
using aurora::util::SimError;
using aurora::util::SimErrorCode;
using faultinject::ShardFault;
using faultinject::ShardFaultPlan;

std::string
tempPath(const std::string &name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<harness::SweepJob>
testGrid(Count insts = 2000)
{
    const core::MachineConfig machine =
        core::parseMachineSpec("model=small");
    return harness::suiteJobs(machine, trace::integerSuite(), insts);
}

#if defined(__SANITIZE_THREAD__)
#define AURORA_TEST_TSAN 1
#elif defined(__SANITIZE_ADDRESS__)
#define AURORA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AURORA_TEST_TSAN 1
#elif __has_feature(address_sanitizer)
#define AURORA_TEST_ASAN 1
#endif
#endif

/**
 * Lease for the grids of LONG_JOB_INSTS-instruction jobs. A shard
 * deep in one simulation cannot beat, so the lease must exceed the
 * longest job (shard::wire::BeatMsg). ThreadSanitizer runs such a job
 * about 20x slower (4-5 s instead of 210-280 ms on a 4-CPU host), so
 * its builds scale the lease by the same factor: job, lease and grid
 * keep their native proportions, and the silent shard of
 * DropHeartbeatsIsFencedWhileResultsFlow is still fenced before it
 * drains its work. AddressSanitizer runs such a job about 3.5x slower
 * (0.39-0.46 s instead of 0.11-0.13 s per integer profile on a 4-CPU
 * host); its builds scale the lease by 2.5, which keeps it above the
 * slowest job and well below the silent shard's drain. The short-job
 * tests keep the 400 ms base lease.
 */
constexpr Count LONG_JOB_INSTS = 600'000;
#ifdef AURORA_TEST_TSAN
constexpr std::uint64_t LONG_JOB_LEASE_MS = 400 * 20;
#elif defined(AURORA_TEST_ASAN)
constexpr std::uint64_t LONG_JOB_LEASE_MS = 1000;
#else
constexpr std::uint64_t LONG_JOB_LEASE_MS = 400;
#endif

/**
 * Lease for ZombieAppendIsFencedAndRefused. The zombie sleeps three
 * leases before it sends its stale Result, which lands well after the
 * grid is done once the lease is above ~700 ms: the coordinator's
 * shutdown drain must still be waiting for it.
 */
constexpr std::uint64_t ZOMBIE_LEASE_MS = 1500;

shard::SwarmConfig
baseConfig(const std::string &tag)
{
    shard::SwarmConfig config;
    config.socket_path = tempPath("swarm-" + tag + ".sock");
    config.journal_dir = tempPath("swarm-" + tag + ".jd");
    fs::remove(config.socket_path);
    fs::remove_all(config.journal_dir);
    config.shards = 2;
    config.lease_ms = 400;
    return config;
}

void
expectAllOk(const std::vector<harness::SweepOutcome> &outcomes,
            std::size_t n)
{
    ASSERT_EQ(outcomes.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
}

TEST(SwarmSupervision, KillShardFencesMigratesAndRecovers)
{
    shard::SwarmConfig config = baseConfig("kill");
    config.lease_ms = LONG_JOB_LEASE_MS;
    config.fault_plans = {ShardFaultPlan{ShardFault::KillShard, 1},
                          std::nullopt};
    shard::Swarm swarm(config);
    // Jobs long enough that the backlog outlives the respawn
    // throttle — the replacement worker must actually be needed.
    const auto grid = testGrid(LONG_JOB_INSTS);
    expectAllOk(swarm.runGrid(grid, {}), grid.size());

    const shard::SwarmStats &stats = swarm.stats();
    EXPECT_GE(stats.shard_exits, 1u);
    EXPECT_GE(stats.migrated_jobs, 1u);
    EXPECT_GE(stats.respawns, 1u);
    EXPECT_EQ(stats.committed, grid.size());
    EXPECT_FALSE(swarm.fencedEpochs().empty());
}

TEST(SwarmSupervision, ZombieAppendIsFencedAndRefused)
{
    shard::SwarmConfig config = baseConfig("zombie");
    config.lease_ms = ZOMBIE_LEASE_MS;
    config.fault_plans = {
        ShardFaultPlan{ShardFault::ZombieAppend, 1}, std::nullopt};
    shard::Swarm swarm(config);
    const auto grid = testGrid();
    expectAllOk(swarm.runGrid(grid, {}), grid.size());

    const shard::SwarmStats &stats = swarm.stats();
    // The zombie's lease expired (it went silent past the lease)...
    EXPECT_GE(stats.lease_expiries, 1u);
    // ...its unfinished work moved to live shards...
    EXPECT_GE(stats.migrated_jobs, 1u);
    // ...and its post-fence Result was refused over the wire, not
    // merely ignored: exactly-once held by *refusal*, not luck.
    EXPECT_GE(stats.fenced_results, 1u);
    EXPECT_EQ(stats.committed, grid.size());
    EXPECT_FALSE(swarm.fencedEpochs().empty());
}

/**
 * Serve one lease as a v1 shard driven by hand: Hello{version=1},
 * then run every assigned job as aurora_shardd does (journal first,
 * then Result) until Shutdown. Returns the Assign payloads received.
 */
std::vector<std::string>
runV1Shard(const shard::SwarmConfig &config)
{
    namespace wire = shard::wire;
    util::Fd fd = util::connectUnix(config.socket_path);
    wire::FrameDecoder decoder;
    wire::sendFrame(fd.get(),
                    wire::encode(wire::HelloMsg{
                        1, static_cast<std::uint64_t>(::getpid())}));
    const auto reply = util::recvFrame(fd.get(), decoder, 30'000);
    if (!reply)
        return {};
    const wire::WelcomeMsg welcome = wire::decodeWelcome(*reply);
    EXPECT_EQ(welcome.version, 1u);
    wire::sendFrame(fd.get(), wire::encode(wire::BeatMsg{
                                  welcome.slot, welcome.epoch, 0}));
    shard::ShardJournalWriter journal(
        shard::shardJournalPath(config.journal_dir, welcome.epoch),
        welcome.slot, welcome.epoch);

    std::vector<std::string> assigns;
    while (auto payload = util::recvFrame(fd.get(), decoder, 30'000)) {
        if (wire::peekType(*payload) != wire::MsgType::Assign)
            break; // Shutdown (or Fenced, which the caller sees)
        assigns.push_back(*payload);
        for (const wire::JobSpec &spec :
             wire::decodeAssign(*payload).jobs) {
            harness::SweepJob job;
            job.machine = core::parseMachineSpec(spec.machine_spec);
            job.profile = trace::profileByName(spec.profile_name);
            job.profile.seed = spec.profile_seed;
            job.instructions = spec.instructions;
            harness::JobPolicy policy;
            if (spec.has_base_seed)
                policy.base_seed = spec.base_seed;
            const auto index = static_cast<std::size_t>(spec.job_index);
            const std::string bytes =
                harness::encodeJournalRecord(harness::jobRecord(
                    index, job, policy.base_seed,
                    harness::runJob(job, index, policy)));
            journal.append({welcome.epoch, spec.ticket, bytes});
            wire::sendFrame(fd.get(),
                            wire::encode(wire::ResultMsg{
                                welcome.slot, welcome.epoch,
                                spec.ticket, bytes}));
        }
    }
    return assigns;
}

TEST(SwarmSupervision, V1ShardGetsAssignWithoutTraceIdAndCommits)
{
    shard::SwarmConfig config = baseConfig("v1");
    config.spawn = shard::SpawnMode::External;
    config.shards = 1;
    config.lease_ms = 10'000;
    config.idle_timeout_ms = 10'000;
    shard::Swarm swarm(config);
    const auto grid = testGrid();

    // A traced grid: a v2 shard would get the trailing trace id.
    obs::SpanLog span_log;
    shard::GridOptions options;
    options.base_seed = 3;
    options.trace_id = 0x5eed0000cafef00dull;
    options.span_log = &span_log;
    std::vector<harness::SweepOutcome> outcomes;
    std::string error;
    std::thread coordinator([&] {
        try {
            outcomes = swarm.runGrid(grid, options);
        } catch (const SimError &e) {
            error = e.what();
        }
    });
    const std::vector<std::string> assigns = runV1Shard(config);
    coordinator.join();
    ASSERT_TRUE(error.empty()) << error;

    ASSERT_FALSE(assigns.empty());
    for (const std::string &payload : assigns) {
        const auto assign = shard::wire::decodeAssign(payload);
        EXPECT_EQ(assign.trace_id, 0u);
        // Re-encoding with no trace id reproduces every byte: the
        // frame carried the v1 layout, with no trailing field.
        EXPECT_EQ(shard::wire::encode(assign), payload);
    }
    expectAllOk(outcomes, grid.size());
    EXPECT_EQ(swarm.stats().committed, grid.size());

    // The v1 shard's records are the serial runner's, byte for byte.
    harness::SweepOptions serial;
    serial.workers = 1;
    serial.base_seed = options.base_seed;
    const auto expected = harness::SweepRunner(serial).runOutcomes(grid);
    ASSERT_EQ(expected.size(), outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(harness::runResultBytes(outcomes[i].result),
                  harness::runResultBytes(expected[i].result))
            << "job " << i;
}

TEST(SwarmSupervision, DropHeartbeatsIsFencedWhileResultsFlow)
{
    // A one-way partition: the shard keeps producing but stops
    // beating. Results do NOT renew the lease, so the fence must
    // fire even though traffic is flowing.
    shard::SwarmConfig config = baseConfig("partition");
    config.lease_ms = LONG_JOB_LEASE_MS;
    config.fault_plans = {
        ShardFaultPlan{ShardFault::DropHeartbeats, 0}, std::nullopt};
    shard::Swarm swarm(config);
    // Work enough that the silent shard cannot drain its half of the
    // grid inside one lease — the fence must catch it mid-flight. One
    // pass of the suite is about one lease of work per shard, so the
    // grid is two passes.
    auto grid = testGrid(LONG_JOB_INSTS);
    const auto pass = grid;
    grid.insert(grid.end(), pass.begin(), pass.end());
    expectAllOk(swarm.runGrid(grid, {}), grid.size());
    EXPECT_GE(swarm.stats().lease_expiries, 1u);
    EXPECT_EQ(swarm.stats().committed, grid.size());
}

TEST(SwarmSupervision, CommitJournalResumeReplaysWithoutShards)
{
    const auto grid = testGrid();
    const std::string journal = tempPath("swarm-resume.ajrn");
    fs::remove(journal);

    shard::GridOptions options;
    options.journal = journal;
    {
        shard::Swarm swarm(baseConfig("resume1"));
        expectAllOk(swarm.runGrid(grid, options), grid.size());
    }

    // Second run resumes: every job replays from the commit journal,
    // no shard ever executes anything.
    options.resume = true;
    shard::Swarm swarm(baseConfig("resume2"));
    const auto outcomes = swarm.runGrid(grid, options);
    expectAllOk(outcomes, grid.size());
    EXPECT_EQ(swarm.stats().resumed, grid.size());
    EXPECT_EQ(swarm.stats().committed, 0u);
    EXPECT_EQ(swarm.stats().granted_leases, 0u);
    for (const harness::SweepOutcome &out : outcomes)
        EXPECT_TRUE(out.resumed);
}

TEST(SwarmSupervision, ZeroShardsIsBadConfig)
{
    shard::SwarmConfig config = baseConfig("zero");
    config.shards = 0;
    try {
        shard::Swarm swarm(config);
        FAIL() << "shards=0 accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
    }
}

TEST(SwarmSupervision, ExecModeWithoutBinaryIsBadConfig)
{
    shard::SwarmConfig config = baseConfig("nobin");
    config.spawn = shard::SpawnMode::Exec;
    try {
        shard::Swarm swarm(config);
        FAIL() << "exec mode without --shardd accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadConfig);
    }
}

TEST(SwarmSupervision, ExternalFleetThatNeverDialsIsLost)
{
    shard::SwarmConfig config = baseConfig("ghost");
    config.spawn = shard::SpawnMode::External;
    config.idle_timeout_ms = 300;
    shard::Swarm swarm(config);
    try {
        (void)swarm.runGrid(testGrid(), {});
        FAIL() << "grid completed with no workers";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("fleet lost"),
                  std::string::npos);
    }
}

} // namespace
