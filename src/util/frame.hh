/**
 * @file
 * CRC-framed message transport shared by every Aurora socket protocol.
 *
 * A frame is the journal's record framing byte-for-byte
 * (util/record_io layout) under a protocol-specific magic:
 *
 *     [u32 magic] [u32 payload_len] [u32 crc32(payload)] [payload]
 *
 * all little-endian. The CRC means a torn or bit-flipped frame is
 * *detected*, never misparsed — the same guarantee the sweep journal
 * gives on disk, extended to the socket. Each protocol picks a
 * distinct magic (serve speaks 'AWP1', the shard fabric 'ASW1') so a
 * stream from the wrong peer — or a journal file pushed down a
 * socket — is rejected at the first frame instead of half-parsed.
 */

#ifndef AURORA_UTIL_FRAME_HH
#define AURORA_UTIL_FRAME_HH

#include <cstdint>
#include <optional>
#include <string>

namespace aurora::util
{

/** Bytes of the fixed frame header (magic + length + CRC). */
inline constexpr std::size_t FRAME_HEADER_BYTES = 12;

/** Wrap @p payload in a frame under @p magic. */
std::string frame(std::uint32_t magic, const std::string &payload);

/** What FrameDecoder::next() found. */
enum class FrameStatus
{
    NeedMore, ///< buffer holds only a partial frame; feed more bytes
    Ok,       ///< a complete, CRC-valid payload was extracted
    Corrupt,  ///< bad magic, implausible length, or CRC mismatch
};

/**
 * Incremental frame extractor for a non-blocking socket: feed() the
 * bytes read() hands you, then drain complete payloads with next().
 * Corrupt is terminal for the connection — after a framing error the
 * stream offset is untrustworthy, so the caller must drop the peer,
 * exactly as a mid-file corrupt journal refuses to resume.
 */
class FrameDecoder
{
  public:
    /** Decode frames carrying @p magic; anything else is Corrupt. */
    explicit FrameDecoder(std::uint32_t magic) : magic_(magic) {}

    /** Append raw socket bytes to the decode buffer. */
    void feed(const char *data, std::size_t len);
    void feed(const std::string &bytes);

    /** Extract the next complete payload, if any. */
    FrameStatus next(std::string &payload);

    /** True when no partial frame is pending — a peer that closes
     *  here closed cleanly, not mid-message. */
    bool atFrameBoundary() const { return pos_ == buf_.size(); }

    /** Bytes buffered but not yet consumed (tests, caps). */
    std::size_t pendingBytes() const { return buf_.size() - pos_; }

  private:
    std::uint32_t magic_;
    std::string buf_;
    std::size_t pos_ = 0;
};

/** A FrameDecoder fixed to one protocol's @p Magic. */
template <std::uint32_t Magic>
class MagicFrameDecoder : public FrameDecoder
{
  public:
    MagicFrameDecoder() : FrameDecoder(Magic) {}
};

/** Blocking send of one framed payload. */
void sendFrame(int fd, std::uint32_t magic, const std::string &payload);

/**
 * Blocking receive of the next framed payload, reading through
 * @p decoder. Returns std::nullopt on a clean peer close at a frame
 * boundary; throws SimError(BadWire) on corruption, on a close
 * mid-frame, or after @p timeout_ms with no complete frame
 * (0 = wait forever).
 */
std::optional<std::string> recvFrame(int fd, FrameDecoder &decoder,
                                     std::uint64_t timeout_ms = 0);

} // namespace aurora::util

#endif // AURORA_UTIL_FRAME_HH
