#include "net/protocol.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CHAOS_NET_HAVE_CLMUL 1
#else
#define CHAOS_NET_HAVE_CLMUL 0
#endif

#include "obs/json.hpp"
#include "util/result.hpp"

namespace chaos::net {

namespace {

constexpr std::uint8_t kMagic0 = 'C';
constexpr std::uint8_t kMagic1 = 'W';

// ---- Little-endian primitive packing -------------------------------
//
// The wire is little-endian. On a little-endian host every field,
// and a whole counter row, is one memcpy; elsewhere the byte loops
// below spell the order out.

constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

/** Store unsigned @p v at @p p in wire order; @return p past it. */
template <typename T>
std::uint8_t *
put(std::uint8_t *p, T v)
{
    if constexpr (kHostIsLittleEndian) {
        std::memcpy(p, &v, sizeof(v));
    } else {
        for (std::size_t i = 0; i < sizeof(v); ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return p + sizeof(v);
}

/** Doubles travel as their IEEE-754 bit pattern. */
std::uint8_t *
putF64(std::uint8_t *p, double v)
{
    return put(p, std::bit_cast<std::uint64_t>(v));
}

/** Load an unsigned T stored in wire order at @p p. */
template <typename T>
T
get(const std::uint8_t *p)
{
    T v = 0;
    if constexpr (kHostIsLittleEndian) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        for (std::size_t i = sizeof(v); i-- > 0;)
            v = static_cast<T>(v << 8 | p[i]);
    }
    return v;
}

/**
 * Payload reader with bounds checking: every read fails (sets bad)
 * instead of reading past the declared payload, so a length field
 * that lies about its own payload is caught structurally even before
 * the checksum would have.
 */
struct PayloadReader
{
    const std::uint8_t *p;
    std::size_t left;
    bool bad = false;

    bool
    take(std::size_t n)
    {
        if (left < n) {
            bad = true;
            return false;
        }
        return true;
    }

    /** The next unsigned T, or 0 (setting bad) past the end. */
    template <typename T>
    T
    read()
    {
        if (!take(sizeof(T)))
            return 0;
        const T v = get<T>(p);
        p += sizeof(T);
        left -= sizeof(T);
        return v;
    }

    double f64() { return std::bit_cast<double>(read<std::uint64_t>()); }
};

/** A run of payload bytes, appended in order by appendFrame. */
struct Bytes
{
    const void *data;
    std::size_t size;
};

/**
 * Append one binary frame of @p type whose payload is @p parts in
 * order. The CRC runs over the parts where they lie (a sample row is
 * CRC'd in the caller's memory), and each part is appended with one
 * bulk insert: nothing is zero-filled and then overwritten.
 */
std::size_t
appendFrame(std::vector<std::uint8_t> &out, FrameType type,
            std::initializer_list<Bytes> parts)
{
    std::size_t payloadLen = 0;
    for (const Bytes &part : parts)
        payloadLen += part.size;
    std::uint8_t header[kHeaderSize] = {
        kMagic0, kMagic1, kProtocolVersion,
        static_cast<std::uint8_t>(type)};
    put(header + 4, static_cast<std::uint32_t>(payloadLen));
    // CRC over [version, type, len] then the payload: every byte
    // after the magic is covered.
    std::uint32_t crc = crc32(header + 2, 6);
    for (const Bytes &part : parts)
        crc = crc32(static_cast<const std::uint8_t *>(part.data),
                    part.size, crc);
    put(header + 8, crc);
    out.insert(out.end(), header, header + kHeaderSize);
    for (const Bytes &part : parts) {
        const auto *bytes = static_cast<const std::uint8_t *>(part.data);
        out.insert(out.end(), bytes, bytes + part.size);
    }
    return kHeaderSize + payloadLen;
}

DecodeResult
decodeError(std::string message)
{
    DecodeResult r;
    r.status = DecodeStatus::Error;
    r.error = std::move(message);
    return r;
}

/** Format a double for the JSONL framing (shortest round-trip). */
std::string
jsonNumber(double v)
{
    if (std::isnan(v))
        return "null"; // JSON has no NaN; decode maps null back.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Advance the raw (pre-inverted) CRC state @p crc over @p size bytes:
 * standard IEEE 802.3 reflected CRC-32, slice-by-8. Eight tables let
 * eight lookups proceed independently per 8-byte block instead of one
 * serial lookup chain per byte.
 */
std::uint32_t
tableUpdate(std::uint32_t crc, const std::uint8_t *data, std::size_t size)
{
    static const auto tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] =
                    t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
        }
        return t;
    }();
    // The wire feeds bytes lowest-address-first, matching the
    // reflected CRC's low-order-first processing, so the block loads
    // below are wire-order loads.
    while (size >= 8) {
        std::uint32_t lo = get<std::uint32_t>(data) ^ crc;
        const std::uint32_t hi = get<std::uint32_t>(data + 4);
        crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
              tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
              tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
              tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
        data += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = tables[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc;
}

#if CHAOS_NET_HAVE_CLMUL
/** x' = x.lo*k.lo ^ x.hi*k.hi ^ next: one 128-bit fold step. */
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/**
 * Advance the raw CRC state @p crc over @p size bytes (a multiple of
 * 16, at least 64) by carry-less multiplication: four 128-bit lanes
 * fold 64 bytes per step, then fold to one lane, to 64 bits, and a
 * Barrett reduction yields the 32-bit remainder. The constants are
 * the bit-reflected x^n mod P(x) of V. Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction"
 * (Intel, 2009), as in zlib's crc32_simd and Linux's crc32-pclmul.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
foldUpdate(std::uint32_t crc, const std::uint8_t *data, std::size_t size)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
    const auto load = [](const std::uint8_t *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };

    __m128i x1 = _mm_xor_si128(load(data),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load(data + 16);
    __m128i x3 = load(data + 32);
    __m128i x4 = load(data + 48);
    data += 64;
    size -= 64;
    for (; size >= 64; data += 64, size -= 64) {
        x1 = fold(x1, k1k2, load(data));
        x2 = fold(x2, k1k2, load(data + 16));
        x3 = fold(x3, k1k2, load(data + 32));
        x4 = fold(x4, k1k2, load(data + 48));
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; size >= 16; data += 16, size -= 16)
        x1 = fold(x1, k3k4, load(data));

    // 128 -> 64 bits.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
        _mm_srli_si128(x1, 4));
    // Barrett reduction to 32 bits.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

} // namespace

const char *
nackReasonName(NackReason reason)
{
    switch (reason) {
      case NackReason::Backpressure: return "backpressure";
      case NackReason::UnknownMachine: return "unknown_machine";
      case NackReason::BadSample: return "bad_sample";
    }
    return "unknown";
}

namespace detail {

std::uint32_t
crc32Table(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    return ~tableUpdate(~seed, data, size);
}

bool
crc32FoldedSupported()
{
#if CHAOS_NET_HAVE_CLMUL
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return supported;
#else
    return false;
#endif
}

std::uint32_t
crc32Folded(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
#if CHAOS_NET_HAVE_CLMUL
    if (size >= 64) {
        const std::size_t bulk = size & ~std::size_t{15};
        crc = foldUpdate(crc, data, bulk);
        data += bulk;
        size -= bulk;
    }
#endif
    return ~tableUpdate(crc, data, size);
}

} // namespace detail

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    // Every frame pays a CRC on both ends of the wire: with the fields
    // bulk-copied, it is the largest per-sample codec cost.
    return detail::crc32FoldedSupported()
               ? detail::crc32Folded(data, size, seed)
               : detail::crc32Table(data, size, seed);
}

std::size_t
encodeSample(std::uint64_t tick, const std::string &machineId,
             bool hasMetered, double meteredW, const double *row,
             std::size_t rowSize, std::vector<std::uint8_t> &out)
{
    // Machine ids and rows come from user input (CLI flags, fleet
    // manifests), so a limit violation is recoverable, not a bug.
    raiseIf(machineId.empty() || machineId.size() > kMaxMachineIdLen,
            "encodeSample: machine id length out of range");
    raiseIf(rowSize > kMaxRowLen, "encodeSample: row too wide");
    std::uint8_t head[10];
    put(put(head, tick), static_cast<std::uint16_t>(machineId.size()));
    std::uint8_t mid[11];
    mid[0] = hasMetered ? 1 : 0;
    put(putF64(mid + 1, meteredW), static_cast<std::uint16_t>(rowSize));
    // A little-endian host's row already is its wire bytes.
    std::vector<std::uint8_t> swapped;
    const void *rowBytes = row;
    if constexpr (!kHostIsLittleEndian) {
        swapped.resize(8 * rowSize);
        for (std::size_t i = 0; i < rowSize; ++i)
            putF64(swapped.data() + 8 * i, row[i]);
        rowBytes = swapped.data();
    }
    return appendFrame(out, FrameType::Sample,
                       {{head, sizeof(head)},
                        {machineId.data(), machineId.size()},
                        {mid, sizeof(mid)},
                        {rowBytes, 8 * rowSize}});
}

std::size_t
encodeSample(const SampleFrame &frame, std::vector<std::uint8_t> &out)
{
    return encodeSample(frame.tick, frame.machineId, frame.hasMetered,
                        frame.meteredW, frame.row.data(),
                        frame.row.size(), out);
}

std::size_t
encodeCredit(const CreditFrame &frame, std::vector<std::uint8_t> &out)
{
    std::uint8_t payload[20];
    put(put(put(payload, frame.acceptedTotal), frame.rejectedTotal),
        frame.granted);
    return appendFrame(out, FrameType::Credit, {{payload, 20}});
}

std::size_t
encodeNack(const NackFrame &frame, std::vector<std::uint8_t> &out)
{
    std::uint8_t payload[9];
    put(payload, frame.rejectedTotal);
    payload[8] = static_cast<std::uint8_t>(frame.reason);
    return appendFrame(out, FrameType::Nack, {{payload, 9}});
}

std::size_t
encodeIntrospect(const IntrospectFrame &frame,
                 std::vector<std::uint8_t> &out)
{
    std::uint8_t payload[8];
    put(payload, frame.seq);
    return appendFrame(out, FrameType::Introspect, {{payload, 8}});
}

std::size_t
encodeSnapshot(const SnapshotFrame &frame,
               std::vector<std::uint8_t> &out)
{
    // Snapshots are server-built, but the same validation that guards
    // the telemetry JSONL stream guards the wire: a malformed payload
    // is a caller bug surfaced here, not a corrupt frame surfaced at
    // the peer.
    raiseIf(!obs::jsonWellFormed(frame.json),
            "encodeSnapshot: payload is not well-formed JSON");
    raiseIf(frame.json.size() + 8 > kMaxPayloadLen,
            "encodeSnapshot: payload exceeds the frame size cap");
    std::uint8_t seq[8];
    put(seq, frame.seq);
    return appendFrame(out, FrameType::Snapshot,
                       {{seq, 8}, {frame.json.data(), frame.json.size()}});
}

std::string
encodeJsonl(const Frame &frame)
{
    std::string line;
    switch (frame.type) {
      case FrameType::Sample: {
        const SampleFrame &s = frame.sample;
        line = "{\"type\": \"sample\", \"machine\": \"" +
               obs::jsonEscape(s.machineId) +
               "\", \"tick\": " + std::to_string(s.tick);
        if (s.hasMetered)
            line += ", \"metered_w\": " + jsonNumber(s.meteredW);
        line += ", \"row\": [";
        for (std::size_t i = 0; i < s.row.size(); ++i) {
            if (i > 0)
                line += ", ";
            line += jsonNumber(s.row[i]);
        }
        line += "]}";
        break;
      }
      case FrameType::Credit:
        line = "{\"type\": \"credit\", \"accepted\": " +
               std::to_string(frame.credit.acceptedTotal) +
               ", \"rejected\": " +
               std::to_string(frame.credit.rejectedTotal) +
               ", \"granted\": " +
               std::to_string(frame.credit.granted) + "}";
        break;
      case FrameType::Nack:
        line = "{\"type\": \"nack\", \"rejected\": " +
               std::to_string(frame.nack.rejectedTotal) +
               ", \"reason\": \"" +
               nackReasonName(frame.nack.reason) + "\"}";
        break;
      case FrameType::Introspect:
        line = "{\"type\": \"introspect\", \"seq\": " +
               std::to_string(frame.introspect.seq) + "}";
        break;
      case FrameType::Snapshot:
        // The payload object travels as an escaped string so the line
        // stays one flat JSON object whatever the snapshot contains.
        line = "{\"type\": \"snapshot\", \"seq\": " +
               std::to_string(frame.snapshot.seq) + ", \"json\": \"" +
               obs::jsonEscape(frame.snapshot.json) + "\"}";
        break;
    }
    line += '\n';
    return line;
}

DecodeResult
decodeFrame(const std::uint8_t *data, std::size_t size, Frame &out)
{
    DecodeResult r;
    // Magic and version are checked as soon as their bytes arrive, so
    // a stream that is not this protocol errors on byte one, not
    // after a bogus length field asked for a megabyte of garbage.
    if (size >= 1 && data[0] != kMagic0)
        return decodeError("bad magic byte 0");
    if (size >= 2 && data[1] != kMagic1)
        return decodeError("bad magic byte 1");
    if (size >= 3 && data[2] != kProtocolVersion) {
        return decodeError("unsupported protocol version " +
                           std::to_string(data[2]));
    }
    if (size < kHeaderSize)
        return r; // NeedMore.

    const std::uint8_t type = data[3];
    const std::uint32_t payloadLen = get<std::uint32_t>(data + 4);
    const std::uint32_t wireCrc = get<std::uint32_t>(data + 8);
    if (payloadLen > kMaxPayloadLen) {
        return decodeError("payload length " +
                           std::to_string(payloadLen) +
                           " exceeds the " +
                           std::to_string(kMaxPayloadLen) +
                           "-byte cap");
    }
    if (size < kHeaderSize + payloadLen)
        return r; // NeedMore.

    std::uint32_t crc = crc32(data + 2, 6);
    crc = crc32(data + kHeaderSize, payloadLen, crc);
    if (crc != wireCrc)
        return decodeError("checksum mismatch");

    PayloadReader pr{data + kHeaderSize, payloadLen};
    switch (static_cast<FrameType>(type)) {
      case FrameType::Sample: {
        out.type = FrameType::Sample;
        SampleFrame &s = out.sample;
        s.tick = pr.read<std::uint64_t>();
        const std::uint16_t idLen = pr.read<std::uint16_t>();
        if (pr.bad || idLen == 0 || idLen > kMaxMachineIdLen ||
            !pr.take(idLen))
            return decodeError("sample: bad machine id length");
        s.machineId.assign(reinterpret_cast<const char *>(pr.p),
                           idLen);
        pr.p += idLen;
        pr.left -= idLen;
        s.hasMetered = pr.read<std::uint8_t>() != 0;
        s.meteredW = pr.f64();
        const std::uint16_t rowLen = pr.read<std::uint16_t>();
        if (pr.bad || rowLen > kMaxRowLen ||
            pr.left != static_cast<std::size_t>(rowLen) * 8)
            return decodeError("sample: bad row length");
        s.row.resize(rowLen);
        if constexpr (kHostIsLittleEndian) {
            if (rowLen > 0)
                std::memcpy(s.row.data(), pr.p, pr.left);
            pr.p += pr.left;
            pr.left = 0;
        } else {
            for (double &v : s.row)
                v = pr.f64();
        }
        break;
      }
      case FrameType::Credit:
        out.type = FrameType::Credit;
        out.credit.acceptedTotal = pr.read<std::uint64_t>();
        out.credit.rejectedTotal = pr.read<std::uint64_t>();
        out.credit.granted = pr.read<std::uint32_t>();
        if (pr.bad || pr.left != 0)
            return decodeError("credit: bad payload size");
        break;
      case FrameType::Nack: {
        out.type = FrameType::Nack;
        out.nack.rejectedTotal = pr.read<std::uint64_t>();
        const std::uint8_t reason = pr.read<std::uint8_t>();
        if (pr.bad || pr.left != 0 || reason < 1 || reason > 3)
            return decodeError("nack: bad payload");
        out.nack.reason = static_cast<NackReason>(reason);
        break;
      }
      case FrameType::Introspect:
        out.type = FrameType::Introspect;
        out.introspect.seq = pr.read<std::uint64_t>();
        if (pr.bad || pr.left != 0)
            return decodeError("introspect: bad payload size");
        break;
      case FrameType::Snapshot: {
        out.type = FrameType::Snapshot;
        out.snapshot.seq = pr.read<std::uint64_t>();
        if (pr.bad)
            return decodeError("snapshot: truncated payload");
        out.snapshot.json.assign(
            reinterpret_cast<const char *>(pr.p), pr.left);
        pr.p += pr.left;
        pr.left = 0;
        if (!obs::jsonWellFormed(out.snapshot.json))
            return decodeError("snapshot: payload is not JSON");
        break;
      }
      default:
        return decodeError("unknown frame type " +
                           std::to_string(type));
    }
    if (pr.bad)
        return decodeError("truncated payload");
    r.status = DecodeStatus::Ok;
    r.consumed = kHeaderSize + payloadLen;
    return r;
}

DecodeResult
decodeJsonlLine(const std::string &line, Frame &out)
{
    obs::JsonValue v;
    if (!obs::jsonParse(line, v) || !v.isObject())
        return decodeError("jsonl: line is not a JSON object");
    const std::string type = v.stringOr("type", "");
    if (type == "sample") {
        out.type = FrameType::Sample;
        SampleFrame &s = out.sample;
        s.machineId = v.stringOr("machine", "");
        if (s.machineId.empty() ||
            s.machineId.size() > kMaxMachineIdLen)
            return decodeError("jsonl sample: bad machine id");
        const obs::JsonValue *tick = v.find("tick");
        if (tick == nullptr || !tick->isNumber() ||
            tick->asNumber() < 0)
            return decodeError("jsonl sample: bad tick");
        s.tick = static_cast<std::uint64_t>(tick->asNumber());
        const obs::JsonValue *metered = v.find("metered_w");
        s.hasMetered = metered != nullptr && metered->isNumber();
        s.meteredW = s.hasMetered
                         ? metered->asNumber()
                         : std::numeric_limits<double>::quiet_NaN();
        const obs::JsonValue *row = v.find("row");
        if (row == nullptr || !row->isArray() ||
            row->items().size() > kMaxRowLen)
            return decodeError("jsonl sample: bad row");
        s.row.clear();
        s.row.reserve(row->items().size());
        for (const obs::JsonValue &item : row->items()) {
            if (!item.isNumber() && !item.isNull())
                return decodeError("jsonl sample: non-numeric row");
            s.row.push_back(
                item.isNumber()
                    ? item.asNumber()
                    : std::numeric_limits<double>::quiet_NaN());
        }
    } else if (type == "credit") {
        out.type = FrameType::Credit;
        out.credit.acceptedTotal =
            static_cast<std::uint64_t>(v.numberOr("accepted", 0));
        out.credit.rejectedTotal =
            static_cast<std::uint64_t>(v.numberOr("rejected", 0));
        out.credit.granted =
            static_cast<std::uint32_t>(v.numberOr("granted", 0));
    } else if (type == "nack") {
        out.type = FrameType::Nack;
        out.nack.rejectedTotal =
            static_cast<std::uint64_t>(v.numberOr("rejected", 0));
        const std::string reason = v.stringOr("reason", "");
        if (reason == "backpressure")
            out.nack.reason = NackReason::Backpressure;
        else if (reason == "unknown_machine")
            out.nack.reason = NackReason::UnknownMachine;
        else if (reason == "bad_sample")
            out.nack.reason = NackReason::BadSample;
        else
            return decodeError("jsonl nack: unknown reason '" +
                               reason + "'");
    } else if (type == "introspect") {
        out.type = FrameType::Introspect;
        out.introspect.seq =
            static_cast<std::uint64_t>(v.numberOr("seq", 0));
    } else if (type == "snapshot") {
        out.type = FrameType::Snapshot;
        out.snapshot.seq =
            static_cast<std::uint64_t>(v.numberOr("seq", 0));
        out.snapshot.json = v.stringOr("json", "");
        if (!obs::jsonWellFormed(out.snapshot.json))
            return decodeError("jsonl snapshot: payload is not JSON");
    } else {
        return decodeError("jsonl: unknown frame type '" + type +
                           "'");
    }
    DecodeResult r;
    r.status = DecodeStatus::Ok;
    r.consumed = line.size();
    return r;
}

bool
decodeFrameOrRaise(const std::uint8_t *data, std::size_t size,
                   Frame &out, std::size_t &consumed)
{
    const DecodeResult r = decodeFrame(data, size, out);
    raiseIf(r.status == DecodeStatus::Error,
            "net: corrupt frame: " + r.error);
    consumed = r.consumed;
    return r.status == DecodeStatus::Ok;
}

void
FrameReader::append(const std::uint8_t *data, std::size_t size)
{
    if (size == 0)
        return;
    if (mode == Mode::Undecided) {
        // The first byte of the stream commits the framing.
        if (data[0] == kMagic0) {
            mode = Mode::Binary;
        } else if (data[0] == '{') {
            mode = Mode::Jsonl;
        } else if (errorMessage.empty()) {
            errorMessage = "stream starts with byte " +
                           std::to_string(data[0]) +
                           ", neither binary magic nor JSONL";
        }
    }
    buf.insert(buf.end(), data, data + size);
}

DecodeStatus
FrameReader::next(Frame &frame)
{
    if (!errorMessage.empty())
        return DecodeStatus::Error;
    if (mode == Mode::Jsonl) {
        // One '\n'-terminated JSON object per frame.
        for (std::size_t i = readPos; i < buf.size(); ++i) {
            if (buf[i] != '\n')
                continue;
            lineScratch.assign(
                reinterpret_cast<const char *>(buf.data()) + readPos,
                i - readPos);
            readPos = i + 1;
            compact();
            const DecodeResult r = decodeJsonlLine(lineScratch, frame);
            if (r.status == DecodeStatus::Error) {
                errorMessage = r.error;
                return DecodeStatus::Error;
            }
            return DecodeStatus::Ok;
        }
        // An unterminated line longer than any legal frame can never
        // complete usefully; fail instead of buffering forever.
        if (buffered() > kMaxPayloadLen) {
            errorMessage = "jsonl line exceeds the frame size cap";
            return DecodeStatus::Error;
        }
        return DecodeStatus::NeedMore;
    }
    const DecodeResult r =
        decodeFrame(buf.data() + readPos, buffered(), frame);
    switch (r.status) {
      case DecodeStatus::Ok:
        readPos += r.consumed;
        compact();
        return DecodeStatus::Ok;
      case DecodeStatus::NeedMore:
        return DecodeStatus::NeedMore;
      case DecodeStatus::Error:
        errorMessage = r.error;
        return DecodeStatus::Error;
    }
    return DecodeStatus::Error;
}

void
FrameReader::compact()
{
    // Reclaim consumed prefix space once it dominates the buffer, so
    // a long-lived connection's read buffer stays proportional to its
    // unconsumed backlog instead of growing without bound.
    if (readPos > 4096 && readPos * 2 > buf.size()) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(readPos));
        readPos = 0;
    }
}

} // namespace chaos::net
