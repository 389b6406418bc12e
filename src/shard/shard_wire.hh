/**
 * @file
 * Shard fabric wire protocol: coordinator <-> shard worker messages.
 *
 * Frames are util/frame's CRC framing under the 'ASW1' magic —
 * distinct from serve's 'AWP1' and the journal's 'AJRN', so a client
 * that dials the wrong socket is refused at its first frame. Payloads
 * are util/message encodings: byte 0 is the MsgType, then the fields
 * each message's fields() lists, so seeds and doubles cross the wire
 * bit-exactly.
 *
 * Conversation shape (coordinator supervises, shard pulls):
 *
 *   shard                          coordinator
 *   Hello{version, pid}       -->
 *                             <--  Welcome{slot, epoch, lease_ms,
 *                                          beat_ms}
 *                             <--  Assign{epoch, jobs}*   (chunked)
 *   Beat{slot, epoch, done}   -->  (renews the lease)
 *   Result{slot, epoch,
 *          ticket, record}    -->  (one per completed job)
 *                             <--  Fenced{epoch}  (lease lost: exit)
 *                             <--  Shutdown{}     (grid done: exit)
 *
 * The epoch is the fencing token (docs/distributed.md): the
 * coordinator stamps each lease grant with a fresh epoch, and every
 * shard->coordinator message carries the epoch the shard believes it
 * holds. A Result under any epoch other than the slot's current one
 * is refused — that is the entire zombie-append defence, so the
 * check lives in one place (Swarm::handleResult) and this header
 * keeps the token in every message shape.
 *
 * A Result's `record` field is exactly harness::encodeJournalRecord()
 * of the job's journal record, and the shard appends those same bytes
 * to its local journal *before* sending — what the coordinator
 * commits is bit-identical to what the shard persisted, which is what
 * makes the final merge's byte-equality cross-check possible.
 */

#ifndef AURORA_SHARD_SHARD_WIRE_HH
#define AURORA_SHARD_SHARD_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/frame.hh"
#include "util/message.hh"

namespace aurora::shard::wire
{

/** Frame magic ('ASW1', little-endian). */
inline constexpr std::uint32_t SHARD_MAGIC = 0x31575341u;

/**
 * Protocol version carried in Hello/Welcome. The coordinator accepts
 * any version in [MIN_SHARD_PROTOCOL_VERSION, SHARD_PROTOCOL_VERSION]
 * and echoes the negotiated minimum in Welcome; anything else is
 * AUR305. v2 adds an optional trailing trace id on Assign — written
 * only when nonzero and only to v2 shards, so a v1 worker's decode
 * path never sees it.
 */
inline constexpr std::uint32_t SHARD_PROTOCOL_VERSION = 2;
inline constexpr std::uint32_t MIN_SHARD_PROTOCOL_VERSION = 1;

/** Payload byte 0. Shard→coordinator types are low, replies high. */
enum class MsgType : std::uint8_t
{
    Hello = 1,
    Beat = 2,
    Result = 3,

    Welcome = 64,
    Assign = 65,
    Fenced = 66,
    Shutdown = 67,
};

/** Every message type and its display name ("Hello", ...). */
inline constexpr util::MessageName<MsgType> MESSAGES[] = {
    {MsgType::Hello, "Hello"},
    {MsgType::Beat, "Beat"},
    {MsgType::Result, "Result"},
    {MsgType::Welcome, "Welcome"},
    {MsgType::Assign, "Assign"},
    {MsgType::Fenced, "Fenced"},
    {MsgType::Shutdown, "Shutdown"},
};

/** Display name ("Hello", "Fenced", ...) for logs and tests. */
inline const char *
msgTypeName(MsgType type)
{
    return util::messageName(MESSAGES, type);
}

/** First byte of @p payload as a MsgType; BadWire when empty or not
 *  a known type. */
inline MsgType
peekType(const std::string &payload)
{
    return util::peekMessageType(MESSAGES, payload);
}

/** util::FrameDecoder fixed to the shard fabric's magic. */
using FrameDecoder = util::MagicFrameDecoder<SHARD_MAGIC>;

/** Wrap @p payload in a shard wire frame. */
inline std::string
frame(const std::string &payload)
{
    return util::frame(SHARD_MAGIC, payload);
}

/** Blocking send of one framed payload. */
inline void
sendFrame(int fd, const std::string &payload)
{
    util::sendFrame(fd, SHARD_MAGIC, payload);
}

/// @name Messages (shard → coordinator)
/// @{

struct HelloMsg
{
    static constexpr MsgType TYPE = MsgType::Hello;
    std::uint32_t version = SHARD_PROTOCOL_VERSION;
    /** Shard's pid, for the coordinator's logs and kill drills. */
    std::uint64_t pid = 0;

    template <class F> void fields(F &f) { f(version, pid); }
};

/** Lease renewal. Sent between jobs and while idle; a shard deep in
 *  one long simulation cannot beat, so the lease must exceed the
 *  worst-case job time (docs/distributed.md). */
struct BeatMsg
{
    static constexpr MsgType TYPE = MsgType::Beat;
    std::uint32_t slot = 0;
    std::uint64_t epoch = 0;
    /** Jobs this incarnation has completed (monotone; logs only). */
    std::uint64_t done = 0;

    template <class F> void fields(F &f) { f(slot, epoch, done); }
};

struct ResultMsg
{
    static constexpr MsgType TYPE = MsgType::Result;
    std::uint32_t slot = 0;
    /** Epoch the shard holds — the fencing token. */
    std::uint64_t epoch = 0;
    /** Coordinator-issued job ticket this result answers. */
    std::uint64_t ticket = 0;
    /** harness::encodeJournalRecord() bytes, already durable in the
     *  shard's local journal. */
    std::string record;

    template <class F> void fields(F &f) { f(slot, epoch, ticket, record); }
};

/// @}
/// @name Messages (coordinator → shard)
/// @{

struct WelcomeMsg
{
    static constexpr MsgType TYPE = MsgType::Welcome;
    std::uint32_t version = SHARD_PROTOCOL_VERSION;
    /** Stable slot index [0, shards) this connection now serves. */
    std::uint32_t slot = 0;
    /** Freshly-granted lease epoch; stamp every message with it. */
    std::uint64_t epoch = 0;
    /** Miss a beat for this long and the lease is fenced. */
    std::uint64_t lease_ms = 0;
    /** Target cadence for Beat messages (lease_ms / 4 or better). */
    std::uint64_t beat_ms = 0;

    template <class F>
    void fields(F &f)
    {
        f(version, slot, epoch, lease_ms, beat_ms);
    }
};

/** One grid point, in the portable form the shard re-hydrates with
 *  core::parseMachineSpec() + trace::profileByName() (the profile's
 *  seed is then overwritten with profile_seed, so a caller-tweaked
 *  seed survives the wire; mix fractions are canonical-by-name,
 *  exactly as aurora_serve assumes). */
struct JobSpec
{
    /** Coordinator-issued commit ticket (unique per assignment). */
    std::uint64_t ticket = 0;
    /** Submission-order index in the original grid. */
    std::uint64_t job_index = 0;
    std::string machine_spec;
    std::string profile_name;
    std::uint64_t profile_seed = 0;
    std::uint64_t instructions = 0;
    /** SweepOptions mirror (per job so mixed grids can share a
     *  fabric in service mode). */
    bool has_base_seed = false;
    std::uint64_t base_seed = 0;
    std::uint64_t deadline_ms = 0;
    std::uint32_t retries = 0;
    std::uint64_t backoff_ms = 0;

    template <class F>
    void fields(F &f)
    {
        f(ticket, job_index, machine_spec, profile_name, profile_seed,
          instructions, has_base_seed, base_seed, deadline_ms, retries,
          backoff_ms);
    }
};

struct AssignMsg
{
    static constexpr MsgType TYPE = MsgType::Assign;
    /** Epoch these assignments are valid under. */
    std::uint64_t epoch = 0;
    std::vector<JobSpec> jobs;
    /**
     * v2: the grid's causal trace id (0 = untraced). The shard
     * derives its attempt-span identities from it (obs/ids.hh), so
     * the coordinator's merged trace parents them without any id
     * exchange. Optional trailing field.
     */
    std::uint64_t trace_id = 0;

    template <class F>
    void fields(F &f)
    {
        f(epoch, jobs, util::Trailing{trace_id});
    }
};

/** The slot's lease was revoked; the named epoch is dead and every
 *  result sent under it will be refused. The shard must exit. */
struct FencedMsg
{
    static constexpr MsgType TYPE = MsgType::Fenced;
    std::uint64_t epoch = 0;

    template <class F> void fields(F &f) { f(epoch); }
};

/** Clean end-of-grid: drain and exit 0. */
struct ShutdownMsg
{
    static constexpr MsgType TYPE = MsgType::Shutdown;
    template <class F> void fields(F &) {}
};

/// @}

/** Encode one message to its payload bytes (type byte included). */
template <util::MessageOf<MsgType> M>
std::string
encode(const M &m)
{
    return util::encodeMessage(m);
}

/// Decode one payload; throws SimError(BadWire) on a wrong type byte,
/// a truncated payload, an out-of-range field, or trailing bytes
/// (format mismatch).
/// @{
template <class M>
using Decoder = util::MessageDecoder<M, MESSAGES>;
inline constexpr Decoder<HelloMsg> decodeHello{};
inline constexpr Decoder<BeatMsg> decodeBeat{};
inline constexpr Decoder<ResultMsg> decodeResult{};
inline constexpr Decoder<WelcomeMsg> decodeWelcome{};
inline constexpr Decoder<AssignMsg> decodeAssign{};
inline constexpr Decoder<FencedMsg> decodeFenced{};
inline constexpr Decoder<ShutdownMsg> decodeShutdown{};
/// @}

} // namespace aurora::shard::wire

#endif // AURORA_SHARD_SHARD_WIRE_HH
