/**
 * @file
 * The message-table codec shared by every framed Aurora protocol
 * (serve's AWP1, the shard fabric's ASW1) and the spool manifest.
 *
 * A message is a plain aggregate with a TYPE constant (its type byte)
 * and one member template that lists its layout once:
 *
 *     struct CancelOkMsg
 *     {
 *         static constexpr MsgType TYPE = MsgType::CancelOk;
 *         std::uint64_t fingerprint = 0;
 *         std::uint64_t cancelled_jobs = 0;
 *         template <class F>
 *         void fields(F &f) { f(fingerprint, cancelled_jobs); }
 *     };
 *
 * encodeMessage() runs that list with a writer and decodeMessage()
 * with a reader, so encoder and decoder cannot disagree. A payload is
 * the type byte, then each field in list order, little-endian
 * (util/record_io's ByteWriter):
 *
 *   bool, u8         1 byte (a bool decodes as byte != 0)
 *   u32, u64, f64    4 / 8 / 8 bytes; doubles bit-exact
 *   std::string      u32 length, then the bytes
 *   std::vector<T>   u64 count, then each element's own fields()
 *   Bounded{e, max}  an enum in 1 byte; decoding refuses > max
 *   Trailing{v}      the v2 optional trailing u64, last in the list:
 *                    written only when nonzero, read only when bytes
 *                    remain, so a frame without it is exactly the v1
 *                    frame and decodes as 0
 *
 * Decoding throws SimError(BadWire) on a wrong type byte, a payload
 * too short for its fields (underrun), an out-of-range enum, a vector
 * count the remaining bytes cannot hold (refused before allocating:
 * the CRC is not a secret, so a crafted count passes it), and
 * trailing bytes.
 */

#ifndef AURORA_UTIL_MESSAGE_HH
#define AURORA_UTIL_MESSAGE_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "record_io.hh"
#include "sim_error.hh"

namespace aurora::util
{

/** One row of a protocol's message table: type byte and its name. */
template <class Type>
struct MessageName
{
    Type type;
    const char *name;
};

/** Display name of @p type in @p table ("?" when absent). */
template <class Type, std::size_t N>
const char *
messageName(const MessageName<Type> (&table)[N], Type type)
{
    for (const MessageName<Type> &row : table)
        if (row.type == type)
            return row.name;
    return "?";
}

/** Type byte of @p payload; BadWire when empty or not in @p table. */
template <class Type, std::size_t N>
Type
peekMessageType(const MessageName<Type> (&table)[N],
                const std::string &payload)
{
    if (payload.empty())
        raiseError(SimErrorCode::BadWire, "empty message payload");
    const auto raw = static_cast<std::uint8_t>(payload[0]);
    for (const MessageName<Type> &row : table)
        if (static_cast<std::uint8_t>(row.type) == raw)
            return row.type;
    raiseError(SimErrorCode::BadWire, "unknown message type ",
               static_cast<unsigned>(raw));
}

/** An enum field: one byte, refused on decode above max. */
template <class E>
struct Bounded
{
    E &value;
    E max;
};

/** The v2 optional trailing u64 (see the file comment). */
struct Trailing
{
    std::uint64_t &value;
};

/** Runs a field list into payload bytes. */
class MessageWriter
{
  public:
    template <class... T>
    void
    operator()(T &&...fields)
    {
        (put(fields), ...);
    }

    const std::string &bytes() const { return w_.bytes(); }

  private:
    void put(std::uint8_t v) { w_.u8(v); }
    void put(bool v) { w_.u8(v ? 1 : 0); }
    void put(std::uint32_t v) { w_.u32(v); }
    void put(std::uint64_t v) { w_.u64(v); }
    void put(double v) { w_.f64(v); }
    void put(const std::string &v) { w_.str(v); }

    template <class E>
    void
    put(const Bounded<E> &f)
    {
        w_.u8(static_cast<std::uint8_t>(f.value));
    }

    void
    put(const Trailing &f)
    {
        if (f.value != 0)
            w_.u64(f.value);
    }

    template <class T>
    void
    put(std::vector<T> &v)
    {
        w_.u64(v.size());
        for (T &element : v)
            element.fields(*this);
    }

    ByteWriter w_;
};

/** Bytes of a default @p T: the least any encoded @p T can take. */
template <class T>
std::size_t
minEncodedBytes()
{
    T probe;
    MessageWriter w;
    probe.fields(w);
    return w.bytes().size();
}

/** Runs a field list over payload bytes; every failure is BadWire. */
class MessageReader
{
  public:
    /** @p message names the message in errors. */
    MessageReader(const std::string &payload, const char *message)
        : rd_(payload, SimErrorCode::BadWire), message_(message)
    {
    }

    template <class... T>
    void
    operator()(T &&...fields)
    {
        (get(fields), ...);
    }

    bool exhausted() const { return rd_.exhausted(); }

  private:
    void get(std::uint8_t &v) { v = rd_.u8(); }
    void get(bool &v) { v = rd_.u8() != 0; }
    void get(std::uint32_t &v) { v = rd_.u32(); }
    void get(std::uint64_t &v) { v = rd_.u64(); }
    void get(double &v) { v = rd_.f64(); }
    void get(std::string &v) { v = rd_.str(); }

    template <class E>
    void
    get(const Bounded<E> &f)
    {
        const std::uint8_t raw = rd_.u8();
        if (raw > static_cast<std::uint8_t>(f.max))
            raiseError(SimErrorCode::BadWire, "out-of-range value ",
                       static_cast<unsigned>(raw), " in a ", message_,
                       " message");
        f.value = static_cast<E>(raw);
    }

    void
    get(const Trailing &f)
    {
        if (!rd_.exhausted())
            f.value = rd_.u64();
    }

    template <class T>
    void
    get(std::vector<T> &v)
    {
        const std::uint64_t count = rd_.u64();
        const std::size_t least = std::max<std::size_t>(
            1, minEncodedBytes<T>());
        if (count > rd_.remaining() / least)
            raiseError(SimErrorCode::BadWire, "implausible count ",
                       count, " in a ", message_, " message");
        v.resize(static_cast<std::size_t>(count));
        for (T &element : v)
            element.fields(*this);
    }

    ByteReader rd_;
    const char *message_;
};

/** A message of the protocol whose type bytes are @p Type. */
template <class M, class Type>
concept MessageOf = std::same_as<std::remove_cv_t<decltype(M::TYPE)>, Type>;

/** Encode @p m: its type byte, then its fields. */
template <class M>
std::string
encodeMessage(const M &m)
{
    MessageWriter w;
    w(static_cast<std::uint8_t>(M::TYPE));
    // fields() takes non-const references so one list serves both
    // directions; the writer only reads through them.
    const_cast<M &>(m).fields(w);
    return w.bytes();
}

/** Decode a payload that must hold exactly one @p M; @p table names
 *  the protocol's types in errors. */
template <class M, class Type, std::size_t N>
M
decodeMessage(const std::string &payload,
              const MessageName<Type> (&table)[N])
{
    const char *name = messageName(table, M::TYPE);
    MessageReader rd(payload, name);
    std::uint8_t type = 0;
    rd(type);
    if (type != static_cast<std::uint8_t>(M::TYPE))
        raiseError(SimErrorCode::BadWire, "expected a ", name,
                   " message, got type byte ",
                   static_cast<unsigned>(type));
    M m;
    m.fields(rd);
    if (!rd.exhausted())
        raiseError(SimErrorCode::BadWire, "trailing bytes after a ",
                   name, " message (format mismatch)");
    return m;
}

/** decodeMessage() bound to one message of the protocol whose table
 *  is @p Table, so the protocol declares each decodeX in one line. */
template <class M, const auto &Table>
struct MessageDecoder
{
    M
    operator()(const std::string &payload) const
    {
        return decodeMessage<M>(payload, Table);
    }
};

} // namespace aurora::util

#endif // AURORA_UTIL_MESSAGE_HH
