/**
 * @file
 * The CHAOS fleet-telemetry wire protocol: how counter samples travel
 * from collector machines to a ChaosIngestServer, and how credit /
 * NACK backpressure travels back.
 *
 * A connection speaks one of two framings, chosen by its first byte:
 *
 *  - Binary ('C'): length-prefixed frames with a fixed 12-byte header
 *
 *        offset  size  field
 *        0       1     magic0 'C'
 *        1       1     magic1 'W'
 *        2       1     version (kProtocolVersion)
 *        3       1     frame type (FrameType)
 *        4       4     payload length, little-endian u32
 *        8       4     CRC-32 over bytes [2..8) and the payload
 *        12      len   payload
 *
 *    All integers are little-endian; doubles travel as their IEEE-754
 *    bit pattern (a NaN payload survives the trip bit-identically).
 *    The CRC covers version, type, and the length field as well as
 *    the payload, so any corrupt byte outside the two magic bytes is
 *    caught by the checksum and the two magic bytes are checked
 *    directly: a mutated frame is rejected, never silently accepted.
 *
 *  - JSONL ('{'): one JSON object per '\n'-terminated line, for
 *    debuggability (drive a server with a shell heredoc, inspect a
 *    capture with standard tools). Same frame vocabulary:
 *
 *        {"type": "sample", "machine": "m0", "tick": 3,
 *         "row": [..], "metered_w": 93.5}
 *        {"type": "credit", "accepted": 10, "rejected": 0,
 *         "granted": 10}
 *        {"type": "nack", "rejected": 4, "reason": "backpressure"}
 *
 * Frame vocabulary (both framings):
 *
 *  - Sample (client -> server): one machine-second of telemetry —
 *    machine id, tick, the catalog-ordered counter row, and an
 *    optional metered reference reading.
 *  - Credit (server -> client): cumulative accepted/rejected counts
 *    plus freshly granted send credits. The client may keep at most
 *    `window` unacknowledged samples in flight; credits replenish the
 *    window as the server disposes of samples, so a slow server
 *    throttles its clients explicitly instead of letting the kernel
 *    socket buffer (and then a drop-oldest queue) absorb the
 *    overload silently.
 *  - Nack (server -> client): a sample was *rejected* — queue
 *    backpressure, unknown machine id, or a structurally invalid
 *    sample — with the cumulative rejected count. Rejected samples
 *    still consume and return credit (they were disposed of), so the
 *    client's window accounting never wedges.
 *  - Introspect (client -> server): ask the server for a live
 *    observability snapshot; carries a client-chosen sequence number
 *    echoed in the reply so a poller can match request to response.
 *  - Snapshot (server -> client): the reply — one validated JSON
 *    object (fleet state, stage-latency percentiles, flight-recorder
 *    summary, ingest stats) as the payload. This is what `chaos top`
 *    renders.
 *
 * Encode/decode are pure functions over byte buffers — no sockets in
 * this translation unit — so the framing state machine is testable
 * (and fuzzable) without a network in sight. Incremental decoding
 * lives in FrameReader, which tolerates arbitrary fragmentation: a
 * frame split at every byte boundary decodes identically to one
 * delivered whole.
 */
#ifndef CHAOS_NET_PROTOCOL_HPP
#define CHAOS_NET_PROTOCOL_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace chaos::net {

/** Protocol version this build speaks. */
inline constexpr std::uint8_t kProtocolVersion = 1;

/** Frame header size in bytes (magic..crc, before the payload). */
inline constexpr std::size_t kHeaderSize = 12;

/** Maximum payload length a peer may claim (1 MiB). */
inline constexpr std::uint32_t kMaxPayloadLen = 1u << 20;

/** Maximum counter-row width a sample may carry. */
inline constexpr std::size_t kMaxRowLen = 4096;

/** Maximum machine-id length a sample may carry. */
inline constexpr std::size_t kMaxMachineIdLen = 256;

/** Wire frame types (byte 3 of the header). */
enum class FrameType : std::uint8_t {
    Sample = 1,     ///< client -> server: one machine-second of telemetry.
    Credit = 2,     ///< server -> client: window replenishment + ack totals.
    Nack = 3,       ///< server -> client: a sample was rejected.
    Introspect = 4, ///< client -> server: request a live snapshot.
    Snapshot = 5,   ///< server -> client: the snapshot reply (JSON).
};

/** Why a sample was rejected (Nack payload). */
enum class NackReason : std::uint8_t {
    Backpressure = 1,   ///< Shard queue full; resend later or shed.
    UnknownMachine = 2, ///< Machine id not registered with the fleet.
    BadSample = 3,      ///< Structurally invalid sample payload.
};

/** @return Stable lowercase name for @p reason (e.g. "backpressure"). */
const char *nackReasonName(NackReason reason);

/** One machine-second of telemetry in flight. */
struct SampleFrame
{
    std::uint64_t tick = 0;  ///< Producer-side sample index.
    std::string machineId;   ///< Fleet registry key.
    bool hasMetered = false; ///< True when meteredW is a real reading.
    double meteredW = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> row; ///< Catalog-ordered counter values.
};

/** Window replenishment + cumulative ack totals. */
struct CreditFrame
{
    std::uint64_t acceptedTotal = 0; ///< Samples accepted so far.
    std::uint64_t rejectedTotal = 0; ///< Samples rejected so far.
    std::uint32_t granted = 0;       ///< Send credits granted now.
};

/** One sample rejected (see NackReason). */
struct NackFrame
{
    std::uint64_t rejectedTotal = 0; ///< Samples rejected so far.
    NackReason reason = NackReason::Backpressure;
};

/** Request for a live observability snapshot. */
struct IntrospectFrame
{
    std::uint64_t seq = 0; ///< Client token, echoed in the Snapshot.
};

/** The snapshot reply: one validated single-line JSON object. */
struct SnapshotFrame
{
    std::uint64_t seq = 0; ///< Echo of the request's token.
    std::string json;      ///< Well-formed JSON object (checked on
                           ///< both encode and decode).
};

/** A decoded frame: @c type selects which member is meaningful. */
struct Frame
{
    FrameType type = FrameType::Sample;
    SampleFrame sample;
    CreditFrame credit;
    NackFrame nack;
    IntrospectFrame introspect;
    SnapshotFrame snapshot;
};

/**
 * CRC-32 (IEEE 802.3 polynomial) of @p data; seedable for chaining:
 * crc32(a‖b) == crc32(b, crc32(a)). Runs detail::crc32Folded where
 * the CPU supports it, else detail::crc32Table: the same checksum.
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);

namespace detail {
/** Slice-by-8 table CRC-32: the portable path. */
std::uint32_t crc32Table(const std::uint8_t *data, std::size_t size,
                         std::uint32_t seed = 0);
/** True when this CPU can run crc32Folded (x86 PCLMULQDQ + SSE4.1). */
bool crc32FoldedSupported();
/** Carry-less-multiply folded CRC-32 (its tail takes the table loop). */
std::uint32_t crc32Folded(const std::uint8_t *data, std::size_t size,
                          std::uint32_t seed = 0);
} // namespace detail

// ---- Encoding (appends to @p out, returns bytes appended) ----------

/** Append one binary Sample frame straight from the caller's row. */
std::size_t encodeSample(std::uint64_t tick, const std::string &machineId,
                         bool hasMetered, double meteredW,
                         const double *row, std::size_t rowSize,
                         std::vector<std::uint8_t> &out);

/** Append one binary Sample frame. */
std::size_t encodeSample(const SampleFrame &frame,
                         std::vector<std::uint8_t> &out);

/** Append one binary Credit frame. */
std::size_t encodeCredit(const CreditFrame &frame,
                         std::vector<std::uint8_t> &out);

/** Append one binary Nack frame. */
std::size_t encodeNack(const NackFrame &frame,
                       std::vector<std::uint8_t> &out);

/** Append one binary Introspect frame. */
std::size_t encodeIntrospect(const IntrospectFrame &frame,
                             std::vector<std::uint8_t> &out);

/**
 * Append one binary Snapshot frame. Raises RecoverableError when the
 * JSON payload is not well-formed or would overflow the payload cap.
 */
std::size_t encodeSnapshot(const SnapshotFrame &frame,
                           std::vector<std::uint8_t> &out);

/** @return @p frame as one JSONL line (single line, '\n'-terminated). */
std::string encodeJsonl(const Frame &frame);

// ---- Decoding ------------------------------------------------------

/** What one decode attempt concluded. */
enum class DecodeStatus {
    Ok,       ///< One whole frame decoded; @c consumed bytes used.
    NeedMore, ///< The buffer holds only a frame prefix; read more.
    Error,    ///< The stream is corrupt; the connection is unusable.
};

/** Result of one decode attempt over a byte buffer. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::NeedMore;
    std::size_t consumed = 0; ///< Bytes consumed (Ok only).
    std::string error;        ///< Human-readable cause (Error only).
};

/**
 * Try to decode one binary frame from the front of [data, data+size).
 * Pure and incremental: returns NeedMore on any true prefix of a
 * valid frame, Ok (with @c consumed) on a whole one, and Error on a
 * stream that can never become valid (bad magic, unknown version or
 * type, oversized or undersized length, checksum mismatch, malformed
 * payload). @p out is only meaningful on Ok; its row buffer is reused
 * across calls, so steady-state decoding does not allocate.
 */
DecodeResult decodeFrame(const std::uint8_t *data, std::size_t size,
                         Frame &out);

/**
 * Decode one frame from a JSONL line (without the trailing newline).
 * @return Error (never NeedMore) on malformed JSON or an unknown /
 *         structurally invalid frame object.
 */
DecodeResult decodeJsonlLine(const std::string &line, Frame &out);

/**
 * Exception-style wrapper over decodeFrame for callers that want the
 * library's RecoverableError contract: raises on Error, returns false
 * on NeedMore, true (with @p out filled) on Ok.
 */
bool decodeFrameOrRaise(const std::uint8_t *data, std::size_t size,
                        Frame &out, std::size_t &consumed);

/**
 * Incremental framing state machine for one connection. Feed it bytes
 * in whatever fragments the transport delivers; pull whole frames
 * out. The first byte of the stream selects the framing: 'C' binary,
 * '{' JSONL, anything else is an immediate protocol error. Errors are
 * sticky — a corrupt stream cannot resynchronize, matching the
 * server's close-on-error contract.
 */
class FrameReader
{
  public:
    /** Buffer @p size bytes received from the peer. */
    void append(const std::uint8_t *data, std::size_t size);

    /**
     * Try to extract the next whole frame into @p frame.
     * @return Ok (frame filled), NeedMore (feed more bytes), or
     *         Error (see error(); sticky).
     */
    DecodeStatus next(Frame &frame);

    /** Human-readable cause of the sticky Error state ("" while ok). */
    const std::string &error() const { return errorMessage; }

    /** True once the stream committed to JSONL framing. */
    bool jsonlMode() const { return mode == Mode::Jsonl; }

    /** Bytes buffered but not yet consumed by a decoded frame. */
    std::size_t buffered() const { return buf.size() - readPos; }

  private:
    enum class Mode { Undecided, Binary, Jsonl };

    void compact();

    Mode mode = Mode::Undecided;
    std::vector<std::uint8_t> buf;
    std::size_t readPos = 0;
    std::string errorMessage;
    std::string lineScratch; ///< Reused JSONL line buffer.
};

} // namespace chaos::net

#endif // CHAOS_NET_PROTOCOL_HPP
