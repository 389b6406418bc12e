/**
 * @file
 * Shard fabric wire-protocol tests: codec round trips for every
 * message, type discrimination, trailing-byte rejection, and frame
 * corruption classification — the fabric-side twin of
 * test_serve_wire.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "shard/shard_wire.hh"
#include "util/sim_error.hh"
#include "wire_golden.hh"

namespace
{

using namespace aurora;
using namespace aurora::shard::wire;
using aurora::util::SimError;
using aurora::util::SimErrorCode;

JobSpec
sampleJob(std::uint64_t ticket)
{
    JobSpec job;
    job.ticket = ticket;
    job.job_index = ticket - 1;
    job.machine_spec = "model=small fp_policy=single";
    job.profile_name = "espresso";
    job.profile_seed = 0x9e3779b97f4a7c15ull;
    job.instructions = 400'000;
    job.has_base_seed = true;
    job.base_seed = 0xfeedfacecafebeefull;
    job.deadline_ms = 30'000;
    job.retries = 2;
    job.backoff_ms = 125;
    return job;
}

TEST(ShardWire, HelloRoundTrips)
{
    HelloMsg m;
    m.pid = 4242;
    const std::string payload = encode(m);
    EXPECT_EQ(peekType(payload), MsgType::Hello);
    const HelloMsg back = decodeHello(payload);
    EXPECT_EQ(back.version, SHARD_PROTOCOL_VERSION);
    EXPECT_EQ(back.pid, 4242u);
}

TEST(ShardWire, BeatRoundTrips)
{
    BeatMsg m;
    m.slot = 3;
    m.epoch = 17;
    m.done = 9;
    const BeatMsg back = decodeBeat(encode(m));
    EXPECT_EQ(back.slot, 3u);
    EXPECT_EQ(back.epoch, 17u);
    EXPECT_EQ(back.done, 9u);
}

TEST(ShardWire, ResultRoundTripsOpaqueRecordBytes)
{
    ResultMsg m;
    m.slot = 1;
    m.epoch = 5;
    m.ticket = 11;
    // The record field is opaque bytes; embedded NULs and high bytes
    // must survive — it is a CRC-framed journal record, not text.
    m.record = std::string("\x00\xff\x7f journal", 11);
    const ResultMsg back = decodeResult(encode(m));
    EXPECT_EQ(back.slot, 1u);
    EXPECT_EQ(back.epoch, 5u);
    EXPECT_EQ(back.ticket, 11u);
    EXPECT_EQ(back.record, m.record);
}

TEST(ShardWire, WelcomeRoundTrips)
{
    WelcomeMsg m;
    m.slot = 2;
    m.epoch = 7;
    m.lease_ms = 10'000;
    m.beat_ms = 2'500;
    const WelcomeMsg back = decodeWelcome(encode(m));
    EXPECT_EQ(back.version, SHARD_PROTOCOL_VERSION);
    EXPECT_EQ(back.slot, 2u);
    EXPECT_EQ(back.epoch, 7u);
    EXPECT_EQ(back.lease_ms, 10'000u);
    EXPECT_EQ(back.beat_ms, 2'500u);
}

TEST(ShardWire, AssignRoundTripsEveryJobField)
{
    AssignMsg m;
    m.epoch = 9;
    m.jobs.push_back(sampleJob(1));
    m.jobs.push_back(sampleJob(2));
    m.jobs[1].has_base_seed = false;
    m.jobs[1].profile_name = "tomcatv";
    const AssignMsg back = decodeAssign(encode(m));
    EXPECT_EQ(back.epoch, 9u);
    ASSERT_EQ(back.jobs.size(), 2u);
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(back.jobs[i].ticket, m.jobs[i].ticket);
        EXPECT_EQ(back.jobs[i].job_index, m.jobs[i].job_index);
        EXPECT_EQ(back.jobs[i].machine_spec, m.jobs[i].machine_spec);
        EXPECT_EQ(back.jobs[i].profile_name, m.jobs[i].profile_name);
        EXPECT_EQ(back.jobs[i].profile_seed, m.jobs[i].profile_seed);
        EXPECT_EQ(back.jobs[i].instructions, m.jobs[i].instructions);
        EXPECT_EQ(back.jobs[i].has_base_seed, m.jobs[i].has_base_seed);
        EXPECT_EQ(back.jobs[i].base_seed, m.jobs[i].base_seed);
        EXPECT_EQ(back.jobs[i].deadline_ms, m.jobs[i].deadline_ms);
        EXPECT_EQ(back.jobs[i].retries, m.jobs[i].retries);
        EXPECT_EQ(back.jobs[i].backoff_ms, m.jobs[i].backoff_ms);
    }
}

TEST(ShardWire, V2AssignTraceIdRoundTripsAndV1BytesDecodeAsZero)
{
    AssignMsg m;
    m.epoch = 4;
    m.jobs.push_back(sampleJob(1));
    m.trace_id = 0xfeedface12345678ull;
    EXPECT_EQ(decodeAssign(encode(m)).trace_id,
              0xfeedface12345678ull);

    // trace_id == 0 encodes as the v1 layout (no trailing field), so
    // an old coordinator's bytes decode with the untraced sentinel.
    AssignMsg v1;
    v1.epoch = 4;
    v1.jobs.push_back(sampleJob(1));
    const AssignMsg back = decodeAssign(encode(v1));
    EXPECT_EQ(back.trace_id, 0u);
    EXPECT_EQ(back.epoch, 4u);
}

TEST(ShardWire, FencedAndShutdownRoundTrip)
{
    EXPECT_EQ(decodeFenced(encode(FencedMsg{23})).epoch, 23u);
    EXPECT_EQ(peekType(encode(ShutdownMsg{})), MsgType::Shutdown);
    (void)decodeShutdown(encode(ShutdownMsg{}));
}

TEST(ShardWire, PeekTypeRejectsEmptyAndUnknown)
{
    EXPECT_THROW((void)peekType(""), SimError);
    EXPECT_THROW((void)peekType(std::string(1, '\x2a')), SimError);
}

TEST(ShardWire, WrongTypeByteIsBadWire)
{
    const std::string hello = encode(HelloMsg{});
    try {
        (void)decodeBeat(hello);
        FAIL() << "wrong-type decode accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(ShardWire, TrailingBytesAreBadWire)
{
    std::string payload = encode(BeatMsg{1, 2, 3});
    payload.push_back('\0');
    try {
        (void)decodeBeat(payload);
        FAIL() << "trailing byte accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

/** One encoded sample of a message type and the decoder for it. */
struct Sample
{
    std::string key;
    std::string payload;
    void (*decode)(const std::string &);
};

/** One sample of every ASW1 message type; Assign also in its v2 form
 *  (trailing trace id), keyed ".v2". */
std::vector<Sample>
samples()
{
    AssignMsg assign;
    assign.epoch = 9;
    assign.jobs.push_back(sampleJob(1));
    assign.jobs.push_back(sampleJob(2));
    assign.jobs[1].has_base_seed = false;
    assign.jobs[1].profile_name = "tomcatv";
    AssignMsg traced = assign;
    traced.trace_id = 0xfeedface12345678ull;
    return {
        {"Hello", encode(HelloMsg{2, 4242}),
         [](const std::string &p) { (void)decodeHello(p); }},
        {"Beat", encode(BeatMsg{3, 17, 9}),
         [](const std::string &p) { (void)decodeBeat(p); }},
        {"Result", encode(ResultMsg{1, 5, 77, std::string("rec\0", 4)}),
         [](const std::string &p) { (void)decodeResult(p); }},
        {"Welcome", encode(WelcomeMsg{2, 1, 5, 400, 100}),
         [](const std::string &p) { (void)decodeWelcome(p); }},
        {"Assign", encode(assign),
         [](const std::string &p) { (void)decodeAssign(p); }},
        {"Assign.v2", encode(traced),
         [](const std::string &p) { (void)decodeAssign(p); }},
        {"Fenced", encode(FencedMsg{23}),
         [](const std::string &p) { (void)decodeFenced(p); }},
        {"Shutdown", encode(ShutdownMsg{}),
         [](const std::string &p) { (void)decodeShutdown(p); }},
    };
}

TEST(ShardWire, EveryMessageMatchesPinnedBytes)
{
    wire_golden::Bytes actual;
    for (const Sample &s : samples())
        actual["asw1." + s.key] = wire_golden::hex(frame(s.payload));
    const std::vector<std::string> prefixes = {"asw1."};
    if (wire_golden::update(prefixes, actual))
        GTEST_SKIP() << "wire fixture regenerated at "
                     << wire_golden::path();
    wire_golden::expectMatches(prefixes, actual);
}

TEST(ShardWire, EveryStrictPrefixIsBadWire)
{
    // A truncated payload is a malformed message, never a journal
    // error or a crash. (Assign.v2 is skipped: its prefix without the
    // trailing trace id is a valid v1 Assign.)
    for (const Sample &s : samples()) {
        if (s.key.ends_with(".v2"))
            continue;
        for (std::size_t len = 0; len < s.payload.size(); ++len) {
            SCOPED_TRACE(s.key + " cut at " + std::to_string(len));
            try {
                s.decode(s.payload.substr(0, len));
                ADD_FAILURE() << "truncated payload decoded";
            } catch (const SimError &e) {
                EXPECT_EQ(e.code(), SimErrorCode::BadWire) << e.what();
            }
        }
    }
}

TEST(ShardWire, DecoderRoundTripsFrames)
{
    FrameDecoder decoder;
    decoder.feed(frame(encode(BeatMsg{1, 2, 3})) +
                 frame(encode(ShutdownMsg{})));
    std::string payload;
    ASSERT_EQ(decoder.next(payload), util::FrameStatus::Ok);
    EXPECT_EQ(peekType(payload), MsgType::Beat);
    ASSERT_EQ(decoder.next(payload), util::FrameStatus::Ok);
    EXPECT_EQ(peekType(payload), MsgType::Shutdown);
    EXPECT_EQ(decoder.next(payload), util::FrameStatus::NeedMore);
}

TEST(ShardWire, DecoderRejectsForeignMagic)
{
    // A frame from another fabric (flip one magic byte) must be
    // Corrupt at the decoder, not a surprise at the codec.
    std::string framed = frame(encode(BeatMsg{1, 2, 3}));
    framed[0] ^= 0x01;
    FrameDecoder decoder;
    decoder.feed(framed);
    std::string payload;
    EXPECT_EQ(decoder.next(payload), util::FrameStatus::Corrupt);
}

TEST(ShardWire, DecoderFlagsPayloadCorruption)
{
    std::string framed = frame(encode(ResultMsg{0, 1, 2, "bytes"}));
    framed[framed.size() - 3] ^= 0x40; // damage inside the payload
    FrameDecoder decoder;
    decoder.feed(framed);
    std::string payload;
    EXPECT_EQ(decoder.next(payload), util::FrameStatus::Corrupt);
}

} // namespace
