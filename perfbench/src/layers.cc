/**
 * @file
 * Per-layer microbenchmarks over a run's own records and traces.
 *
 * Each row times the library call one layer makes per job, on the
 * inputs the run just produced, in batches of at least BATCH_NS so a
 * row is not a single clock tick. Every batch is one span.
 */

#include <filesystem>
#include <memory>

#include "bench.hh"
#include "mem/biu.hh"
#include "mem/cache.hh"
#include "mem/write_cache.hh"
#include "obs/flight.hh"
#include "serve/wire.hh"
#include "shard/shard_journal.hh"
#include "shard/shard_wire.hh"
#include "util/frame.hh"

namespace perfbench
{

using namespace aurora;

namespace
{

constexpr std::int64_t BATCH_NS = 30'000'000;

/**
 * Run @p batch (which makes @p calls calls) under a span named
 * @p name until BATCH_NS have passed; return ns per call.
 */
template <typename Fn>
double
perCall(SpanLog &log, const char *name, double calls, Fn &&batch)
{
    std::int64_t spent = 0;
    double made = 0.0;
    while (spent < BATCH_NS || made == 0.0) {
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan span(&log, name);
            batch();
        }
        spent += nowNs() - t0;
        made += calls;
    }
    return static_cast<double>(spent) / made;
}

std::string
scratch(const Options &opt, const char *name)
{
    return opt.tmp_dir + "/" + name;
}

} // namespace

void
measureLayers(const LayerInputs &in, const Options &opt, SpanLog &log,
              RunReport &report)
{
    // mem: the D-cache and write cache replaying the job's own loads
    // and stores (cold, like every simulated run).
    double loads = 0.0;
    double stores = 0.0;
    for (const MemTrace &t : in.mem) {
        loads += static_cast<double>(t.loads.size());
        stores += static_cast<double>(t.stores.size());
    }
    std::uint64_t sink = 0;
    report.set("mem.dcache_ns_per_access",
               perCall(log, "mem.dcache_replay", loads, [&] {
                   for (const MemTrace &t : in.mem) {
                       mem::DirectMappedCache cache(
                           t.machine.lsu.dcache_bytes,
                           t.machine.lsu.line_bytes);
                       for (const Addr a : t.loads)
                           if (!cache.access(a))
                               sink += cache.fill(a).value_or(0);
                   }
               }),
               "ns");
    report.set("mem.wcache_ns_per_store",
               perCall(log, "mem.wcache_replay", stores, [&] {
                   for (const MemTrace &t : in.mem) {
                       mem::Biu biu(t.machine.biu);
                       mem::WriteCache wc(t.machine.write_cache, biu);
                       Cycle now = 0;
                       for (const auto &[addr, size] : t.stores)
                           wc.store(addr, size, now += 2);
                       sink += wc.storeTransactions();
                   }
               }),
               "ns");

    const auto n = static_cast<double>(in.records.size());
    std::vector<std::string> encoded;
    for (const harness::JournalRecord &r : in.records)
        encoded.push_back(harness::encodeJournalRecord(r));

    report.set("harness.journal_encode_us",
               perCall(log, "harness.journal_encode", n,
                       [&] {
                           for (const auto &r : in.records)
                               sink += harness::encodeJournalRecord(r)
                                           .size();
                       }) /
                   1e3,
               "us");
    {
        const std::string path = scratch(opt, "layers.ajrn");
        harness::JournalWriter writer(path, 1, in.records.size());
        report.set("harness.journal_append_us",
                   perCall(log, "harness.journal_append", n,
                           [&] {
                               for (const auto &r : in.records)
                                   writer.append(r);
                           }) /
                       1e3,
                   "us");
        std::filesystem::remove(path);
    }

    // util: the CRC frame codec over the Result payloads the service
    // would stream for these records.
    std::vector<std::string> payloads;
    double payload_bytes = 0.0;
    for (const std::string &rec : encoded) {
        payloads.push_back(
            serve::wire::encode(serve::wire::ResultMsg{1, rec}));
        payload_bytes += static_cast<double>(payloads.back().size());
    }
    report.set("util.frame_ns_per_byte",
               perCall(log, "util.frame_roundtrip", payload_bytes, [&] {
                   util::FrameDecoder decoder(serve::wire::WIRE_MAGIC);
                   std::string out;
                   for (const std::string &p : payloads) {
                       decoder.feed(util::frame(serve::wire::WIRE_MAGIC, p));
                       if (decoder.next(out) == util::FrameStatus::Ok)
                           sink += out.size();
                   }
               }),
               "ns");

    // shard: merge one grid's worth of records dealt to two shards,
    // and the ASW1 Result round trip.
    const std::size_t grid = std::min(in.grid_jobs, in.records.size());
    std::vector<shard::ShardJournalRef> refs;
    std::vector<shard::CommitRef> commits;
    {
        std::vector<std::unique_ptr<shard::ShardJournalWriter>> writers;
        for (std::uint32_t slot = 0; slot < 2; ++slot) {
            refs.push_back({slot + 1, slot,
                            scratch(opt, slot ? "merge1.sjrn"
                                              : "merge0.sjrn")});
            writers.push_back(std::make_unique<shard::ShardJournalWriter>(
                refs.back().path, slot, slot + 1));
        }
        for (std::size_t i = 0; i < grid; ++i) {
            harness::JournalRecord r = in.records[i];
            r.job_index = i;
            const auto slot = static_cast<std::uint32_t>(i % 2);
            const std::string bytes = harness::encodeJournalRecord(r);
            writers[slot]->append({slot + 1, i, bytes});
            commits.push_back({i, slot, slot + 1, i, bytes});
        }
    }
    std::size_t merged = 0;
    report.set("shard.merge_ms",
               perCall(log, "shard.merge", 1.0,
                       [&] {
                           merged = shard::mergeShardJournals(refs,
                                                              commits, {})
                                        .size();
                       }) /
                   1e6,
               "ms");
    if (merged != grid)
        report.fail("shard merge returned " + std::to_string(merged) +
                    " of " + std::to_string(grid) + " records");
    for (const auto &ref : refs)
        std::filesystem::remove(ref.path);

    report.set("shard.wire_roundtrip_us",
               perCall(log, "shard.wire_roundtrip", n,
                       [&] {
                           shard::wire::FrameDecoder decoder;
                           std::string out;
                           for (std::size_t i = 0; i < encoded.size();
                                ++i) {
                               shard::wire::ResultMsg msg;
                               msg.slot = static_cast<std::uint32_t>(i % 2);
                               msg.epoch = 1;
                               msg.ticket = i;
                               msg.record = encoded[i];
                               decoder.feed(shard::wire::frame(
                                   shard::wire::encode(msg)));
                               if (decoder.next(out) ==
                                   util::FrameStatus::Ok)
                                   sink += shard::wire::decodeResult(out)
                                               .record.size();
                           }
                       }) /
                   1e3,
               "us");

    // obs: one flight-recorder note per job completion, spooled.
    {
        const std::string path = scratch(opt, "layers.flight");
        obs::FlightRecorder flight;
        flight.spoolTo(path);
        report.set("obs.flight_note_us",
                   perCall(log, "obs.flight_note", n,
                           [&] {
                               for (const auto &r : in.records)
                                   flight.note("job.done", {},
                                               r.outcome.result.benchmark);
                           }) /
                       1e3,
                   "us");
        std::filesystem::remove(path);
    }
    if (sink == 0)
        report.notes.push_back("layer microbenchmarks produced no output");
}

} // namespace perfbench
