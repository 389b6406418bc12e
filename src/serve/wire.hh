/**
 * @file
 * aurora_serve wire protocol: CRC-framed messages over a local socket.
 *
 * Transport frames are util/frame's CRC framing under the 'AWP1'
 * magic:
 *
 *     [u32 magic 'AWP1'] [u32 payload_len] [u32 crc32(payload)] [payload]
 *
 * all little-endian. The CRC means a torn or bit-flipped frame is
 * *detected*, never misparsed — the same guarantee the sweep journal
 * gives on disk, extended to the socket. Payloads are util/message
 * encodings: byte 0 is the MsgType, then the fields each message's
 * fields() lists, so doubles cross the wire bit-exactly.
 *
 * Conversation shape (client drives, server streams):
 *
 *   client                          server
 *   Hello{version, tenant}    -->
 *                             <--   Welcome{version, draining}
 *   Submit{label, opts, jobs} -->
 *                             <--   Accepted{fp, jobs, done} |
 *                                   Rejected{AURxxx, code, msg}
 *                             <--   Result{fp, record}*   (streamed)
 *                             <--   Progress{fp, counts}* (cadenced)
 *                             <--   GridDone{fp, tallies}
 *   Attach{fp}                -->   (replays done Results, then live)
 *   Cancel{fp}                -->
 *                             <--   CancelOk{fp, cancelled}
 *   Status{}                  -->
 *                             <--   StatusReport{...}
 *
 * A Result's `record` field is exactly harness::encodeJournalRecord()
 * of the job's journal record: what the client receives over the wire
 * is bit-identical to what the daemon persisted, so re-attached and
 * live clients cannot disagree.
 */

#ifndef AURORA_SERVE_WIRE_HH
#define AURORA_SERVE_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/frame.hh"
#include "util/message.hh"
#include "util/sim_error.hh"

namespace aurora::serve::wire
{

/** Frame magic ('AWP1', little-endian) — distinct from the journal's
 *  'AJRN' so a journal file pushed down a socket is rejected. */
inline constexpr std::uint32_t WIRE_MAGIC = 0x31505741u;

/**
 * Protocol version carried in Hello/Welcome. The server accepts any
 * version in [MIN_PROTOCOL_VERSION, PROTOCOL_VERSION] and echoes the
 * negotiated minimum in Welcome; anything else is AUR207.
 *
 * v2 adds the observability plane: an optional trailing trace id on
 * Submit/Accepted (written only when nonzero, read only when bytes
 * remain — a v1 peer's frames decode unchanged, and a v1 session is
 * never sent the new field) and the Metrics/MetricsReport pair.
 */
inline constexpr std::uint32_t PROTOCOL_VERSION = 2;
inline constexpr std::uint32_t MIN_PROTOCOL_VERSION = 1;

/** Payload byte 0. Client→server types are low, server→client high. */
enum class MsgType : std::uint8_t
{
    Hello = 1,
    Submit = 2,
    Attach = 3,
    Cancel = 4,
    Status = 5,
    Metrics = 6,

    Welcome = 64,
    Accepted = 65,
    Rejected = 66,
    Progress = 67,
    Result = 68,
    GridDone = 69,
    StatusReport = 70,
    CancelOk = 71,
    Draining = 72,
    MetricsReport = 73,
};

/** Every message type and its display name ("Hello", ...). */
inline constexpr util::MessageName<MsgType> MESSAGES[] = {
    {MsgType::Hello, "Hello"},
    {MsgType::Submit, "Submit"},
    {MsgType::Attach, "Attach"},
    {MsgType::Cancel, "Cancel"},
    {MsgType::Status, "Status"},
    {MsgType::Metrics, "Metrics"},
    {MsgType::Welcome, "Welcome"},
    {MsgType::Accepted, "Accepted"},
    {MsgType::Rejected, "Rejected"},
    {MsgType::Progress, "Progress"},
    {MsgType::Result, "Result"},
    {MsgType::GridDone, "GridDone"},
    {MsgType::StatusReport, "StatusReport"},
    {MsgType::CancelOk, "CancelOk"},
    {MsgType::Draining, "Draining"},
    {MsgType::MetricsReport, "MetricsReport"},
};

/** Display name ("Hello", "GridDone", ...) for logs and tests. */
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

/** Wrap @p payload in a wire frame (magic + length + CRC). */
inline std::string
frame(const std::string &payload)
{
    return util::frame(WIRE_MAGIC, payload);
}

/** Shared frame-extraction status (see util/frame.hh). Corrupt is
 *  terminal for the connection — the peer is dropped (AUR207). */
using util::FrameStatus;

/** util::FrameDecoder fixed to the serve protocol's magic. */
using FrameDecoder = util::MagicFrameDecoder<WIRE_MAGIC>;

/** Blocking send of one framed payload (client side). */
inline void
sendFrame(int fd, const std::string &payload)
{
    util::sendFrame(fd, WIRE_MAGIC, payload);
}

/**
 * Blocking receive of the next framed payload (client side), reading
 * through a FrameDecoder. Returns std::nullopt on a clean peer close at
 * a frame boundary; throws SimError(BadWire) on corruption, on a close
 * mid-frame, or after timeout_ms with no complete frame.
 */
using util::recvFrame;

/// @name Messages (client → server)
/// @{

struct HelloMsg
{
    static constexpr MsgType TYPE = MsgType::Hello;
    std::uint32_t version = PROTOCOL_VERSION;
    /** Tenant identity for quotas and fair scheduling; non-empty. */
    std::string tenant;

    template <class F> void fields(F &f) { f(version, tenant); }
};

/** One grid point of a submission, in portable textual form. */
struct SubmitJob
{
    /** core::parseMachineSpec() input (round-trips describe()). */
    std::string machine_spec;
    /** trace::profileByName() benchmark name. */
    std::string profile;
    /** Instruction budget. */
    std::uint64_t instructions = 0;

    template <class F>
    void fields(F &f)
    {
        f(machine_spec, profile, instructions);
    }
};

struct SubmitMsg
{
    static constexpr MsgType TYPE = MsgType::Submit;
    /** Human label for status listings (not part of the identity). */
    std::string label;
    /** Cancel the grid if this connection drops before it finishes
     *  (false = orphan-detach: the grid keeps running). */
    bool cancel_on_disconnect = false;
    /** SweepOptions::base_seed (has_base_seed gates base_seed). */
    bool has_base_seed = false;
    std::uint64_t base_seed = 0;
    /** SweepOptions::deadline_ms (0 = unlimited). */
    std::uint64_t deadline_ms = 0;
    /** SweepOptions::retries. */
    std::uint32_t retries = 0;
    /** SweepOptions::backoff_ms. */
    std::uint64_t backoff_ms = 0;
    std::vector<SubmitJob> jobs;
    /**
     * v2: caller-supplied causal trace id (0 = let the server mint
     * one from the grid fingerprint). Optional trailing field —
     * encoded only when nonzero, absent on v1 frames.
     */
    std::uint64_t trace_id = 0;

    template <class F>
    void fields(F &f)
    {
        f(label, cancel_on_disconnect, has_base_seed, base_seed, deadline_ms,
          retries, backoff_ms, jobs, util::Trailing{trace_id});
    }
};

struct AttachMsg
{
    static constexpr MsgType TYPE = MsgType::Attach;
    std::uint64_t fingerprint = 0;

    template <class F> void fields(F &f) { f(fingerprint); }
};

struct CancelMsg
{
    static constexpr MsgType TYPE = MsgType::Cancel;
    std::uint64_t fingerprint = 0;

    template <class F> void fields(F &f) { f(fingerprint); }
};

struct StatusMsg
{
    static constexpr MsgType TYPE = MsgType::Status;
    template <class F> void fields(F &) {}
};

/** Exposition format of a Metrics request / report. */
enum class MetricsFormat : std::uint8_t
{
    Prometheus = 0,
    Json = 1,
};

/** v2: ask for a metrics exposition (aurora_top's poll). */
struct MetricsMsg
{
    static constexpr MsgType TYPE = MsgType::Metrics;
    MetricsFormat format = MetricsFormat::Prometheus;

    template <class F>
    void fields(F &f)
    {
        f(util::Bounded{format, MetricsFormat::Json});
    }
};

/// @}
/// @name Messages (server → client)
/// @{

struct WelcomeMsg
{
    static constexpr MsgType TYPE = MsgType::Welcome;
    std::uint32_t version = PROTOCOL_VERSION;
    bool draining = false;

    template <class F> void fields(F &f) { f(version, draining); }
};

struct AcceptedMsg
{
    static constexpr MsgType TYPE = MsgType::Accepted;
    /** gridFingerprint() of the accepted grid — the durable handle a
     *  client re-attaches by after either side restarts. */
    std::uint64_t fingerprint = 0;
    std::uint64_t jobs = 0;
    /** Jobs already complete (0 on a fresh submission; > 0 when an
     *  Attach lands on a grid in flight). */
    std::uint64_t done = 0;
    /** True when this Accepted answers an Attach, not a Submit. */
    bool attached = false;
    /**
     * v2: the grid's causal trace id. Optional trailing field — the
     * server includes it only on v2 sessions (0 = not conveyed).
     */
    std::uint64_t trace_id = 0;

    template <class F>
    void fields(F &f)
    {
        f(fingerprint, jobs, done, attached, util::Trailing{trace_id});
    }
};

struct RejectedMsg
{
    static constexpr MsgType TYPE = MsgType::Rejected;
    /** Stable catalog ID (AUR2xx admission/protocol, or the AUR0xx
     *  preflight lint that failed). */
    std::string id;
    util::SimErrorCode code = util::SimErrorCode::Internal;
    std::string message;

    template <class F>
    void fields(F &f)
    {
        f(id, util::Bounded{code, util::SimErrorCode::BadWire}, message);
    }
};

/** Cadenced heartbeat for one grid (mirrors harness::SweepProgress,
 *  plus the service's cancelled count). */
struct ProgressMsg
{
    static constexpr MsgType TYPE = MsgType::Progress;
    std::uint64_t fingerprint = 0;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    double elapsed_seconds = 0.0;

    template <class F>
    void fields(F &f)
    {
        f(fingerprint, done, total, ok, failed, timed_out, cancelled,
          elapsed_seconds);
    }
};

struct ResultMsg
{
    static constexpr MsgType TYPE = MsgType::Result;
    std::uint64_t fingerprint = 0;
    /** harness::encodeJournalRecord() bytes of the completed job —
     *  decode with harness::decodeJournalRecord(). */
    std::string record;

    template <class F> void fields(F &f) { f(fingerprint, record); }
};

struct GridDoneMsg
{
    static constexpr MsgType TYPE = MsgType::GridDone;
    std::uint64_t fingerprint = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t cancelled = 0;
    /** Jobs replayed from the journal after a daemon restart. */
    std::uint64_t resumed = 0;

    template <class F>
    void fields(F &f)
    {
        f(fingerprint, ok, failed, timed_out, cancelled, resumed);
    }
};

struct StatusReportMsg
{
    static constexpr MsgType TYPE = MsgType::StatusReport;
    bool draining = false;
    std::uint64_t grids = 0;
    std::uint64_t done_grids = 0;
    std::uint64_t queued_jobs = 0;
    std::uint64_t running_jobs = 0;
    std::uint64_t done_jobs = 0;

    template <class F>
    void fields(F &f)
    {
        f(draining, grids, done_grids, queued_jobs, running_jobs, done_jobs);
    }
};

struct CancelOkMsg
{
    static constexpr MsgType TYPE = MsgType::CancelOk;
    std::uint64_t fingerprint = 0;
    /** Queued jobs finalized as Cancelled by this request. */
    std::uint64_t cancelled_jobs = 0;

    template <class F> void fields(F &f) { f(fingerprint, cancelled_jobs); }
};

/** Sent to every connected client when drain begins. */
struct DrainingMsg
{
    static constexpr MsgType TYPE = MsgType::Draining;
    std::string reason;

    template <class F> void fields(F &f) { f(reason); }
};

/** v2: one metrics exposition (obs::renderPrometheus / renderMetricsJson). */
struct MetricsReportMsg
{
    static constexpr MsgType TYPE = MsgType::MetricsReport;
    MetricsFormat format = MetricsFormat::Prometheus;
    std::string body;

    template <class F>
    void fields(F &f)
    {
        f(util::Bounded{format, MetricsFormat::Json}, body);
    }
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
inline constexpr Decoder<SubmitMsg> decodeSubmit{};
inline constexpr Decoder<AttachMsg> decodeAttach{};
inline constexpr Decoder<CancelMsg> decodeCancel{};
inline constexpr Decoder<StatusMsg> decodeStatus{};
inline constexpr Decoder<MetricsMsg> decodeMetrics{};
inline constexpr Decoder<WelcomeMsg> decodeWelcome{};
inline constexpr Decoder<AcceptedMsg> decodeAccepted{};
inline constexpr Decoder<RejectedMsg> decodeRejected{};
inline constexpr Decoder<ProgressMsg> decodeProgress{};
inline constexpr Decoder<ResultMsg> decodeResult{};
inline constexpr Decoder<GridDoneMsg> decodeGridDone{};
inline constexpr Decoder<StatusReportMsg> decodeStatusReport{};
inline constexpr Decoder<CancelOkMsg> decodeCancelOk{};
inline constexpr Decoder<DrainingMsg> decodeDraining{};
inline constexpr Decoder<MetricsReportMsg> decodeMetricsReport{};
/// @}

} // namespace aurora::serve::wire

#endif // AURORA_SERVE_WIRE_HH
