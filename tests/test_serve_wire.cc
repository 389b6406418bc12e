/**
 * @file
 * Wire-protocol tests: message codec round trips, torn-frame
 * classification at every cut byte, CRC-flip fuzz, and the
 * corruptWireFrame() fault-injector contract — the socket-side twin
 * of test_util_record_io.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/faultinject.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "util/sim_error.hh"
#include "util/socket.hh"
#include "wire_golden.hh"

namespace
{

using namespace aurora;
using namespace aurora::serve::wire;
using aurora::util::SimError;
using aurora::util::SimErrorCode;

/** splitmix64 — deterministic fuzz positions without libc rand(). */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

SubmitMsg
sampleSubmit()
{
    SubmitMsg m;
    m.label = "nightly sweep";
    m.cancel_on_disconnect = true;
    m.has_base_seed = true;
    m.base_seed = 0xfeedfacecafebeefull;
    m.deadline_ms = 30'000;
    m.retries = 2;
    m.backoff_ms = 125;
    m.jobs.push_back({"model=small fp_policy=single", "espresso", 4000});
    m.jobs.push_back({"model=large", "tomcatv", 0});
    return m;
}

TEST(WireCodec, HelloRoundTrips)
{
    HelloMsg m;
    m.tenant = "alice";
    const auto payload = encode(m);
    EXPECT_EQ(peekType(payload), MsgType::Hello);
    const auto back = decodeHello(payload);
    EXPECT_EQ(back.version, PROTOCOL_VERSION);
    EXPECT_EQ(back.tenant, "alice");
}

TEST(WireCodec, SubmitRoundTrips)
{
    const SubmitMsg m = sampleSubmit();
    const auto back = decodeSubmit(encode(m));
    EXPECT_EQ(back.label, m.label);
    EXPECT_EQ(back.cancel_on_disconnect, m.cancel_on_disconnect);
    EXPECT_EQ(back.has_base_seed, m.has_base_seed);
    EXPECT_EQ(back.base_seed, m.base_seed);
    EXPECT_EQ(back.deadline_ms, m.deadline_ms);
    EXPECT_EQ(back.retries, m.retries);
    EXPECT_EQ(back.backoff_ms, m.backoff_ms);
    ASSERT_EQ(back.jobs.size(), m.jobs.size());
    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].machine_spec, m.jobs[i].machine_spec);
        EXPECT_EQ(back.jobs[i].profile, m.jobs[i].profile);
        EXPECT_EQ(back.jobs[i].instructions, m.jobs[i].instructions);
    }
}

TEST(WireCodec, ServerMessagesRoundTrip)
{
    const auto accepted =
        decodeAccepted(encode(AcceptedMsg{0xabcdefull, 12, 3, true}));
    EXPECT_EQ(accepted.fingerprint, 0xabcdefull);
    EXPECT_EQ(accepted.jobs, 12u);
    EXPECT_EQ(accepted.done, 3u);
    EXPECT_TRUE(accepted.attached);

    const auto rejected = decodeRejected(encode(RejectedMsg{
        "AUR203", SimErrorCode::Overloaded, "queue full"}));
    EXPECT_EQ(rejected.id, "AUR203");
    EXPECT_EQ(rejected.code, SimErrorCode::Overloaded);
    EXPECT_EQ(rejected.message, "queue full");

    const auto progress = decodeProgress(
        encode(ProgressMsg{7, 5, 10, 4, 1, 0, 0, 1.25}));
    EXPECT_EQ(progress.fingerprint, 7u);
    EXPECT_EQ(progress.done, 5u);
    EXPECT_EQ(progress.total, 10u);
    EXPECT_EQ(progress.ok, 4u);
    EXPECT_EQ(progress.failed, 1u);
    EXPECT_EQ(progress.elapsed_seconds, 1.25);

    const auto result =
        decodeResult(encode(ResultMsg{9, std::string("\x01\x02\x00", 3)}));
    EXPECT_EQ(result.fingerprint, 9u);
    EXPECT_EQ(result.record, std::string("\x01\x02\x00", 3));

    const auto done = decodeGridDone(encode(GridDoneMsg{4, 6, 1, 2, 3, 5}));
    EXPECT_EQ(done.fingerprint, 4u);
    EXPECT_EQ(done.ok, 6u);
    EXPECT_EQ(done.failed, 1u);
    EXPECT_EQ(done.timed_out, 2u);
    EXPECT_EQ(done.cancelled, 3u);
    EXPECT_EQ(done.resumed, 5u);

    const auto status =
        decodeStatusReport(encode(StatusReportMsg{true, 2, 1, 8, 3, 40}));
    EXPECT_TRUE(status.draining);
    EXPECT_EQ(status.grids, 2u);
    EXPECT_EQ(status.done_grids, 1u);
    EXPECT_EQ(status.queued_jobs, 8u);
    EXPECT_EQ(status.running_jobs, 3u);
    EXPECT_EQ(status.done_jobs, 40u);

    const auto cancel_ok = decodeCancelOk(encode(CancelOkMsg{11, 4}));
    EXPECT_EQ(cancel_ok.fingerprint, 11u);
    EXPECT_EQ(cancel_ok.cancelled_jobs, 4u);

    const auto draining = decodeDraining(encode(DrainingMsg{"SIGTERM"}));
    EXPECT_EQ(draining.reason, "SIGTERM");
}

TEST(WireCodec, V2TraceIdRoundTripsOnSubmitAndAccepted)
{
    SubmitMsg submit = sampleSubmit();
    submit.trace_id = 0xdeadbeefcafe1234ull;
    EXPECT_EQ(decodeSubmit(encode(submit)).trace_id,
              0xdeadbeefcafe1234ull);

    AcceptedMsg accepted{0xabcdefull, 12, 3, true};
    accepted.trace_id = 0x1122334455667788ull;
    EXPECT_EQ(decodeAccepted(encode(accepted)).trace_id,
              0x1122334455667788ull);
}

TEST(WireCodec, V1FramesWithoutTraceIdStillDecode)
{
    // A v1 peer never writes the trailing trace id, and a v2 encoder
    // with trace_id == 0 emits the identical v1 bytes — both must
    // decode with the 0 "untraced" sentinel, not raise.
    const SubmitMsg submit = sampleSubmit(); // trace_id defaults to 0
    const auto v1_bytes = encode(submit);
    EXPECT_EQ(decodeSubmit(v1_bytes).trace_id, 0u);

    const auto accepted =
        decodeAccepted(encode(AcceptedMsg{0xabcdefull, 12, 3, false}));
    EXPECT_EQ(accepted.trace_id, 0u);
}

TEST(WireCodec, MetricsRoundTripsBothFormats)
{
    MetricsMsg prom;
    prom.format = MetricsFormat::Prometheus;
    EXPECT_EQ(peekType(encode(prom)), MsgType::Metrics);
    EXPECT_EQ(decodeMetrics(encode(prom)).format,
              MetricsFormat::Prometheus);
    MetricsMsg json;
    json.format = MetricsFormat::Json;
    EXPECT_EQ(decodeMetrics(encode(json)).format,
              MetricsFormat::Json);

    MetricsReportMsg report;
    report.format = MetricsFormat::Json;
    report.body = "{\"schema\": \"aurora.metrics.v1\"}";
    const auto back = decodeMetricsReport(encode(report));
    EXPECT_EQ(back.format, MetricsFormat::Json);
    EXPECT_EQ(back.body, report.body);
}

TEST(WireCodec, WrongTypeByteThrowsBadWire)
{
    const auto payload = encode(HelloMsg{PROTOCOL_VERSION, "bob"});
    try {
        decodeSubmit(payload);
        FAIL() << "type confusion not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(WireCodec, TrailingBytesThrowBadWire)
{
    auto payload = encode(CancelMsg{42});
    payload += '\0';
    try {
        decodeCancel(payload);
        FAIL() << "trailing bytes not detected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), SimErrorCode::BadWire);
    }
}

TEST(WireCodec, EmptyPayloadThrowsBadWire)
{
    try {
        peekType("");
        FAIL() << "empty payload not detected";
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

/** One sample of every AWP1 message type; Submit and Accepted also
 *  in their v2 form (trailing trace id), keyed ".v2". */
std::vector<Sample>
samples()
{
    SubmitMsg traced = sampleSubmit();
    traced.trace_id = 0xdeadbeefcafe1234ull;
    AcceptedMsg accepted{0xabcdefull, 12, 3, true};
    AcceptedMsg traced_accepted = accepted;
    traced_accepted.trace_id = 0x1122334455667788ull;
    return {
        {"Hello", encode(HelloMsg{2, "alice"}),
         [](const std::string &p) { (void)decodeHello(p); }},
        {"Submit", encode(sampleSubmit()),
         [](const std::string &p) { (void)decodeSubmit(p); }},
        {"Submit.v2", encode(traced),
         [](const std::string &p) { (void)decodeSubmit(p); }},
        {"Attach", encode(AttachMsg{0x0123456789abcdefull}),
         [](const std::string &p) { (void)decodeAttach(p); }},
        {"Cancel", encode(CancelMsg{42}),
         [](const std::string &p) { (void)decodeCancel(p); }},
        {"Status", encode(StatusMsg{}),
         [](const std::string &p) { (void)decodeStatus(p); }},
        {"Metrics", encode(MetricsMsg{MetricsFormat::Json}),
         [](const std::string &p) { (void)decodeMetrics(p); }},
        {"Welcome", encode(WelcomeMsg{2, true}),
         [](const std::string &p) { (void)decodeWelcome(p); }},
        {"Accepted", encode(accepted),
         [](const std::string &p) { (void)decodeAccepted(p); }},
        {"Accepted.v2", encode(traced_accepted),
         [](const std::string &p) { (void)decodeAccepted(p); }},
        {"Rejected",
         encode(RejectedMsg{"AUR203", SimErrorCode::Overloaded,
                            "queue full"}),
         [](const std::string &p) { (void)decodeRejected(p); }},
        {"Progress", encode(ProgressMsg{7, 5, 10, 4, 1, 2, 3, -1.25}),
         [](const std::string &p) { (void)decodeProgress(p); }},
        {"Result", encode(ResultMsg{9, std::string("\x01\x02\x00", 3)}),
         [](const std::string &p) { (void)decodeResult(p); }},
        {"GridDone", encode(GridDoneMsg{4, 6, 1, 2, 3, 5}),
         [](const std::string &p) { (void)decodeGridDone(p); }},
        {"StatusReport", encode(StatusReportMsg{true, 2, 1, 8, 3, 40}),
         [](const std::string &p) { (void)decodeStatusReport(p); }},
        {"CancelOk", encode(CancelOkMsg{11, 4}),
         [](const std::string &p) { (void)decodeCancelOk(p); }},
        {"Draining", encode(DrainingMsg{"SIGTERM"}),
         [](const std::string &p) { (void)decodeDraining(p); }},
        {"MetricsReport",
         encode(MetricsReportMsg{MetricsFormat::Json, "{\"up\": 1}"}),
         [](const std::string &p) { (void)decodeMetricsReport(p); }},
    };
}

/**
 * The spool manifest (<fp>.grid) a real daemon writes for a fixed
 * submission, read back as soon as the daemon answers Accepted (the
 * manifest is flushed before that reply).
 */
std::string
manifestBytes()
{
    namespace fs = std::filesystem;
    serve::ServerConfig config;
    config.socket_path =
        (fs::path(::testing::TempDir()) / "wire_golden.sock").string();
    config.spool_dir =
        (fs::path(::testing::TempDir()) / "wire_golden.spool").string();
    config.workers = 1;
    fs::remove(config.socket_path);
    fs::remove_all(config.spool_dir);
    serve::Server server(config);
    std::thread thread([&server] { server.run(); });

    SubmitMsg submit;
    submit.label = "golden";
    submit.has_base_seed = true;
    submit.base_seed = 7;
    submit.deadline_ms = 60'000;
    submit.retries = 2;
    submit.backoff_ms = 5;
    submit.jobs.push_back({"model=small", "espresso", 1000});
    submit.jobs.push_back({"model=large", "li", 1500});

    std::string bytes;
    {
        util::Fd fd = util::connectUnix(server.socketPath());
        FrameDecoder decoder;
        sendFrame(fd.get(), encode(HelloMsg{2, "alice"}));
        recvFrame(fd.get(), decoder, 60'000); // Welcome
        sendFrame(fd.get(), encode(submit));
        for (;;) {
            const auto reply = recvFrame(fd.get(), decoder, 60'000);
            if (!reply)
                break;
            if (peekType(*reply) != MsgType::Accepted)
                continue;
            char name[32];
            std::snprintf(name, sizeof(name), "/%016llx.grid",
                          static_cast<unsigned long long>(
                              decodeAccepted(*reply).fingerprint));
            std::ifstream in(config.spool_dir + name, std::ios::binary);
            std::ostringstream os;
            os << in.rdbuf();
            bytes = os.str();
            break;
        }
    }
    server.requestDrain();
    thread.join();
    return bytes;
}

TEST(WireGolden, EveryMessageAndTheManifestMatchPinnedBytes)
{
    wire_golden::Bytes actual;
    for (const Sample &s : samples())
        actual["awp1." + s.key] = wire_golden::hex(frame(s.payload));
    const std::string manifest = manifestBytes();
    ASSERT_FALSE(manifest.empty()) << "no spool manifest was written";
    actual["manifest.submit"] = wire_golden::hex(manifest);
    const std::vector<std::string> prefixes = {"awp1.", "manifest."};
    if (wire_golden::update(prefixes, actual))
        GTEST_SKIP() << "wire fixture regenerated at "
                     << wire_golden::path();
    wire_golden::expectMatches(prefixes, actual);
}

TEST(WireCodec, EveryStrictPrefixIsBadWire)
{
    // A truncated payload is a malformed message, never a journal
    // error or a crash. (The v2 forms are skipped: their prefix
    // without the trailing trace id is a valid v1 message.)
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

TEST(FrameDecoder, ExtractsFramesInOrder)
{
    const std::vector<std::string> payloads = {
        encode(HelloMsg{PROTOCOL_VERSION, "alice"}),
        encode(StatusMsg{}),
        encode(CancelMsg{99}),
    };
    FrameDecoder decoder;
    for (const auto &p : payloads)
        decoder.feed(frame(p));

    std::string out;
    for (const auto &expected : payloads) {
        ASSERT_EQ(decoder.next(out), FrameStatus::Ok);
        EXPECT_EQ(out, expected);
    }
    EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
    EXPECT_TRUE(decoder.atFrameBoundary());
}

TEST(FrameDecoder, ByteAtATimeFeedingNeedsMoreUntilComplete)
{
    const std::string payload = encode(sampleSubmit());
    const std::string framed = frame(payload);
    FrameDecoder decoder;
    std::string out;
    for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
        decoder.feed(framed.data() + i, 1);
        ASSERT_EQ(decoder.next(out), FrameStatus::NeedMore)
            << "after byte " << i;
        EXPECT_FALSE(decoder.atFrameBoundary());
    }
    decoder.feed(framed.data() + framed.size() - 1, 1);
    ASSERT_EQ(decoder.next(out), FrameStatus::Ok);
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(decoder.atFrameBoundary());
}

TEST(FrameDecoder, EveryCutByteReadsAsTornFrameNeverOk)
{
    // Cut one frame at every possible byte: each prefix is exactly
    // what a read() against a dying peer returns, and each must
    // classify NeedMore (waiting for bytes that never come) — never
    // Ok with a partial payload, never a crash.
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::size_t cut = 0; cut < framed.size(); ++cut) {
        SCOPED_TRACE("cut at byte " + std::to_string(cut));
        FrameDecoder decoder;
        decoder.feed(framed.data(), cut);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
        if (cut > 0) {
            EXPECT_FALSE(decoder.atFrameBoundary());
        }
    }
}

TEST(FrameDecoder, EveryPayloadBitFlipIsCorrupt)
{
    const std::string framed = frame(encode(sampleSubmit()));
    constexpr std::size_t HEADER = 12;
    for (std::size_t byte = HEADER; byte < framed.size(); ++byte) {
        SCOPED_TRACE("payload byte " + std::to_string(byte));
        std::string victim = framed;
        victim[byte] = static_cast<char>(
            static_cast<unsigned char>(victim[byte]) ^
            static_cast<unsigned char>(1u << (byte % 8)));
        FrameDecoder decoder;
        decoder.feed(victim);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
    }
}

TEST(FrameDecoder, FuzzedHeaderFlipsNeverYieldAValidPayload)
{
    // A flip in the header can read as Corrupt (magic/CRC damage) or
    // NeedMore (an inflated length field waits for bytes that never
    // arrive) — but never as Ok: no single-bit flip may produce a
    // deliverable payload.
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::size_t byte = 0; byte < 12; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE("header byte " + std::to_string(byte) +
                         " bit " + std::to_string(bit));
            std::string victim = framed;
            victim[byte] = static_cast<char>(
                static_cast<unsigned char>(victim[byte]) ^
                static_cast<unsigned char>(1u << bit));
            FrameDecoder decoder;
            decoder.feed(victim);
            std::string out;
            EXPECT_NE(decoder.next(out), FrameStatus::Ok);
        }
    }
}

TEST(FrameDecoder, JournalMagicOnTheWireIsCorrupt)
{
    // A journal file pushed down the socket must be refused by magic:
    // same framing layout, different stream ('AJRN' vs 'AWP1').
    std::string bogus = frame(encode(StatusMsg{}));
    bogus[0] = 'A';
    bogus[1] = 'J';
    bogus[2] = 'R';
    bogus[3] = 'N';
    FrameDecoder decoder;
    decoder.feed(bogus);
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
}

TEST(FrameDecoder, RecoveryNotAttemptedAfterCorrupt)
{
    // Corrupt is terminal: even if good frames follow, the stream
    // offset is untrustworthy and the session must be dropped. The
    // decoder keeps reporting Corrupt rather than resynchronizing.
    const std::string good = frame(encode(StatusMsg{}));
    std::string bad = good;
    // Shrink the length field (1 -> 0): the stored CRC no longer
    // matches the (now empty) payload span.
    bad[4] = static_cast<char>(bad[4] ^ 0x01);
    FrameDecoder decoder;
    decoder.feed(bad);
    decoder.feed(good);
    std::string out;
    EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
    EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
}

TEST(WireFaults, TruncateFrameStarvesTheDecoder)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string cut = faultinject::corruptWireFrame(
            framed, faultinject::WireFault::TruncateFrame, seed);
        ASSERT_LT(cut.size(), 12u);
        FrameDecoder decoder;
        decoder.feed(cut);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
    }
}

TEST(WireFaults, MidFrameCutStarvesTheDecoder)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string cut = faultinject::corruptWireFrame(
            framed, faultinject::WireFault::MidFrameCut, seed);
        ASSERT_LT(cut.size(), framed.size());
        FrameDecoder decoder;
        decoder.feed(cut);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::NeedMore);
        EXPECT_FALSE(decoder.atFrameBoundary());
    }
}

TEST(WireFaults, CrcFlipIsCorrupt)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::string flipped = faultinject::corruptWireFrame(
            framed, faultinject::WireFault::CrcFlip, seed);
        ASSERT_EQ(flipped.size(), framed.size());
        FrameDecoder decoder;
        decoder.feed(flipped);
        std::string out;
        EXPECT_EQ(decoder.next(out), FrameStatus::Corrupt);
    }
}

TEST(WireFaults, EmptyPayloadFrameNeverSurvivesAnyFault)
{
    // StatusMsg is the smallest frame (1-byte payload); an *empty*
    // payload cannot occur via encode(), so build the nearest shape
    // and check every fault kind still denies the decoder a payload.
    const std::string framed = frame(encode(StatusMsg{}));
    for (std::size_t f = 0; f < faultinject::NUM_WIRE_FAULTS; ++f) {
        const auto fault = static_cast<faultinject::WireFault>(f);
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            SCOPED_TRACE(std::string(faultinject::wireFaultName(fault)) +
                         " seed " + std::to_string(seed));
            const std::string victim =
                faultinject::corruptWireFrame(framed, fault, seed);
            FrameDecoder decoder;
            decoder.feed(victim);
            std::string out;
            EXPECT_NE(decoder.next(out), FrameStatus::Ok);
        }
    }
}

TEST(WireFaults, SeedDrivenChoiceIsDeterministicAndMapped)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        const auto a = faultinject::anyWireFault(seed);
        const auto b = faultinject::anyWireFault(seed);
        EXPECT_EQ(a, b);
        EXPECT_STREQ(faultinject::wireFaultDiagnosticId(a), "AUR207");
        EXPECT_NE(std::string(faultinject::wireFaultName(a)), "");
    }
}

TEST(WireFaults, FuzzedFrameCorruptionNeverCrashes)
{
    const std::string framed = frame(encode(sampleSubmit()));
    for (std::uint64_t seed = 0; seed < 128; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto fault = faultinject::anyWireFault(mix(seed));
        const std::string victim =
            faultinject::corruptWireFrame(framed, fault, seed);
        FrameDecoder decoder;
        decoder.feed(victim);
        std::string out;
        FrameStatus status;
        int frames = 0;
        while ((status = decoder.next(out)) == FrameStatus::Ok)
            ASSERT_LE(++frames, 1);
        EXPECT_EQ(frames, 0) << "corrupted frame decoded as valid";
    }
}

} // namespace
