/**
 * @file
 * Protocol-grade tests for the wire format (net/protocol.hpp): bitwise
 * round trips, arbitrary fragmentation, and an adversarial corpus —
 * truncations, oversized lengths, garbage streams, and >=10k mutated
 * frames, none of which may crash the decoder or yield an accepted
 * sample that differs from what was sent.
 */
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "../support/reference_crc32.hpp"
#include "net/protocol.hpp"
#include "util/random.hpp"
#include "util/result.hpp"

namespace chaos::net {
namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

SampleFrame
makeSample(Rng &rng, std::size_t rowLen)
{
    SampleFrame sample;
    sample.tick = rng.nextU64();
    sample.machineId =
        "machine" + std::to_string(rng.uniformInt(10000));
    sample.hasMetered = rng.uniformInt(2) == 0;
    sample.meteredW = sample.hasMetered
                          ? rng.uniform(-500.0, 500.0)
                          : std::numeric_limits<double>::quiet_NaN();
    sample.row.resize(rowLen);
    for (double &v : sample.row)
        v = rng.uniform(-1e6, 1e6);
    return sample;
}

TEST(Protocol, Crc32KnownAnswer)
{
    // The IEEE 802.3 check value for "123456789".
    const char *text = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(text), 9),
              0xCBF43926u);
}

/**
 * Compare @p crc with the bitwise reference on every length 0..4096
 * at each of 16 alignments: 65,552 cases, with fresh random bytes and
 * a random seed per alignment (seed 0 at alignment 0). The reference
 * advances one byte per length, so the sweep costs the code under
 * test, not the oracle.
 */
void
expectCrcMatchesReference(std::uint32_t (*crc)(const std::uint8_t *,
                                               std::size_t,
                                               std::uint32_t),
                          std::uint64_t rngSeed)
{
    constexpr std::size_t kMaxLen = 4096;
    Rng rng(rngSeed);
    std::vector<std::uint8_t> buf(kMaxLen + 16);
    int mismatches = 0;
    for (std::size_t align = 0; align < 16; ++align) {
        for (std::uint8_t &b : buf)
            b = static_cast<std::uint8_t>(rng.nextU64());
        const std::uint32_t seed =
            align == 0 ? 0 : static_cast<std::uint32_t>(rng.nextU64());
        const std::uint8_t *data = buf.data() + align;
        std::uint32_t expected = seed; // The CRC of no bytes.
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::uint32_t got = crc(data, len, seed);
            if (got != expected && ++mismatches <= 5) {
                ADD_FAILURE() << "align " << align << " len " << len
                              << ": got " << got << ", want "
                              << expected;
            }
            if (len < kMaxLen) {
                expected = testing_support::referenceCrc32(
                    data + len, 1, expected);
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Protocol, Crc32TableMatchesBitwiseReference)
{
    expectCrcMatchesReference(detail::crc32Table, 101);
}

TEST(Protocol, Crc32FoldedMatchesBitwiseReference)
{
    if (!detail::crc32FoldedSupported())
        GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
    expectCrcMatchesReference(detail::crc32Folded, 103);
}

TEST(Protocol, Crc32ChainsAcrossSplits)
{
    // crc32(a‖b) == crc32(b, crc32(a)) wherever the split falls,
    // including splits that leave either side under one 64-byte fold
    // block or off a 16-byte boundary.
    Rng rng(107);
    std::vector<std::uint8_t> buf(4096);
    for (int iter = 0; iter < 400; ++iter) {
        const std::size_t len = rng.uniformInt(buf.size() + 1);
        for (std::size_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.nextU64());
        const std::size_t cut = rng.uniformInt(len + 1);
        const std::uint32_t whole = crc32(buf.data(), len);
        ASSERT_EQ(whole,
                  testing_support::referenceCrc32(buf.data(), len))
            << "len " << len;
        EXPECT_EQ(crc32(buf.data() + cut, len - cut,
                        crc32(buf.data(), cut)),
                  whole)
            << "len " << len << " cut " << cut;
    }
}

TEST(Protocol, SampleRoundTripIsBitwise)
{
    Rng rng(7);
    for (int iter = 0; iter < 200; ++iter) {
        SampleFrame sample = makeSample(rng, rng.uniformInt(64));
        // Exercise non-finite row values too: NaN payloads must
        // survive bit-for-bit, not collapse through text formatting.
        if (!sample.row.empty()) {
            sample.row[0] = std::numeric_limits<double>::quiet_NaN();
            if (sample.row.size() > 1)
                sample.row[1] =
                    -std::numeric_limits<double>::infinity();
        }

        std::vector<std::uint8_t> wire;
        const std::size_t n = encodeSample(sample, wire);
        EXPECT_EQ(n, wire.size());

        Frame decoded;
        const DecodeResult res =
            decodeFrame(wire.data(), wire.size(), decoded);
        ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
        EXPECT_EQ(res.consumed, wire.size());
        ASSERT_EQ(decoded.type, FrameType::Sample);
        EXPECT_EQ(decoded.sample.tick, sample.tick);
        EXPECT_EQ(decoded.sample.machineId, sample.machineId);
        EXPECT_EQ(decoded.sample.hasMetered, sample.hasMetered);
        EXPECT_EQ(bits(decoded.sample.meteredW),
                  bits(sample.meteredW));
        ASSERT_EQ(decoded.sample.row.size(), sample.row.size());
        for (std::size_t i = 0; i < sample.row.size(); ++i)
            EXPECT_EQ(bits(decoded.sample.row[i]),
                      bits(sample.row[i]))
                << "row[" << i << "]";
    }
}

TEST(Protocol, CreditAndNackRoundTrip)
{
    CreditFrame credit;
    credit.acceptedTotal = 0xdeadbeefcafe1234ull;
    credit.rejectedTotal = 17;
    credit.granted = 4096;
    std::vector<std::uint8_t> wire;
    encodeCredit(credit, wire);

    Frame decoded;
    DecodeResult res = decodeFrame(wire.data(), wire.size(), decoded);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(decoded.type, FrameType::Credit);
    EXPECT_EQ(decoded.credit.acceptedTotal, credit.acceptedTotal);
    EXPECT_EQ(decoded.credit.rejectedTotal, credit.rejectedTotal);
    EXPECT_EQ(decoded.credit.granted, credit.granted);

    NackFrame nack;
    nack.rejectedTotal = 99;
    nack.reason = NackReason::UnknownMachine;
    wire.clear();
    encodeNack(nack, wire);
    res = decodeFrame(wire.data(), wire.size(), decoded);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(decoded.type, FrameType::Nack);
    EXPECT_EQ(decoded.nack.rejectedTotal, nack.rejectedTotal);
    EXPECT_EQ(decoded.nack.reason, nack.reason);
}

TEST(Protocol, EveryTruncationNeedsMore)
{
    Rng rng(11);
    const SampleFrame sample = makeSample(rng, 24);
    std::vector<std::uint8_t> wire;
    encodeSample(sample, wire);

    Frame out;
    for (std::size_t prefix = 0; prefix < wire.size(); ++prefix) {
        const DecodeResult res =
            decodeFrame(wire.data(), prefix, out);
        EXPECT_EQ(res.status, DecodeStatus::NeedMore)
            << "prefix " << prefix << " of " << wire.size();
    }
}

TEST(Protocol, SingleByteFragmentationDecodesAll)
{
    Rng rng(13);
    std::vector<std::uint8_t> wire;
    std::vector<SampleFrame> sent;
    for (int i = 0; i < 20; ++i) {
        sent.push_back(makeSample(rng, rng.uniformInt(32)));
        encodeSample(sent.back(), wire);
    }

    FrameReader reader;
    Frame frame;
    std::size_t decoded = 0;
    for (std::uint8_t byte : wire) {
        reader.append(&byte, 1);
        while (reader.next(frame) == DecodeStatus::Ok) {
            ASSERT_LT(decoded, sent.size());
            EXPECT_EQ(frame.sample.tick, sent[decoded].tick);
            EXPECT_EQ(frame.sample.machineId,
                      sent[decoded].machineId);
            ++decoded;
        }
        ASSERT_TRUE(reader.error().empty()) << reader.error();
    }
    EXPECT_EQ(decoded, sent.size());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, InterleavedRandomChunksDecodeAll)
{
    Rng rng(17);
    std::vector<std::uint8_t> wire;
    std::size_t frames = 0;
    for (int i = 0; i < 50; ++i, ++frames)
        encodeSample(makeSample(rng, rng.uniformInt(48)), wire);

    FrameReader reader;
    Frame frame;
    std::size_t decoded = 0;
    std::size_t off = 0;
    while (off < wire.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + rng.uniformInt(97), wire.size() - off);
        reader.append(wire.data() + off, chunk);
        off += chunk;
        while (reader.next(frame) == DecodeStatus::Ok)
            ++decoded;
        ASSERT_TRUE(reader.error().empty()) << reader.error();
    }
    EXPECT_EQ(decoded, frames);
}

TEST(Protocol, FuzzMutatedFramesNeverAccepted)
{
    Rng rng(23);
    std::vector<std::uint8_t> wire;
    Frame out;
    int mutations = 0;
    while (mutations < 12000) {
        wire.clear();
        switch (rng.uniformInt(3)) {
        case 0:
            encodeSample(makeSample(rng, rng.uniformInt(32)), wire);
            break;
        case 1: {
            CreditFrame credit;
            credit.acceptedTotal = rng.nextU64();
            credit.rejectedTotal = rng.nextU64();
            credit.granted =
                static_cast<std::uint32_t>(rng.nextU64());
            encodeCredit(credit, wire);
            break;
        }
        default: {
            NackFrame nack;
            nack.rejectedTotal = rng.nextU64();
            nack.reason = NackReason::Backpressure;
            encodeNack(nack, wire);
            break;
        }
        }

        for (int m = 0; m < 8; ++m, ++mutations) {
            std::vector<std::uint8_t> corrupt = wire;
            const std::size_t pos = rng.uniformInt(corrupt.size());
            const std::uint8_t delta = static_cast<std::uint8_t>(
                1 + rng.uniformInt(255));
            corrupt[pos] = static_cast<std::uint8_t>(
                corrupt[pos] ^ delta);
            const DecodeResult res =
                decodeFrame(corrupt.data(), corrupt.size(), out);
            // A mutated frame may look like a prefix of a longer one
            // (length-field mutations) but must NEVER decode as Ok:
            // the checksum catches every content mutation.
            EXPECT_NE(res.status, DecodeStatus::Ok)
                << "mutation at byte " << pos << " xor "
                << static_cast<int>(delta) << " was accepted";
        }
    }
}

TEST(Protocol, GarbageStreamsErrorImmediately)
{
    Rng rng(29);
    Frame out;
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<std::uint8_t> junk(1 + rng.uniformInt(256));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.uniformInt(256));
        // Ensure it cannot be a valid stream start.
        if (junk[0] == 'C' || junk[0] == '{')
            junk[0] = 0xEE;
        FrameReader reader;
        reader.append(junk.data(), junk.size());
        EXPECT_EQ(reader.next(out), DecodeStatus::Error);
        EXPECT_FALSE(reader.error().empty());
        // Sticky: appending valid bytes afterwards cannot recover.
        std::vector<std::uint8_t> valid;
        encodeCredit(CreditFrame{}, valid);
        reader.append(valid.data(), valid.size());
        EXPECT_EQ(reader.next(out), DecodeStatus::Error);
    }
}

TEST(Protocol, OversizedLengthPrefixIsError)
{
    std::vector<std::uint8_t> wire;
    encodeCredit(CreditFrame{}, wire);
    // Patch the little-endian payload length (bytes 4..8) beyond the
    // cap; the decoder must refuse before buffering a "frame" that
    // large, whatever the checksum says.
    const std::uint32_t huge = kMaxPayloadLen + 1;
    std::memcpy(wire.data() + 4, &huge, sizeof(huge));
    Frame out;
    const DecodeResult res =
        decodeFrame(wire.data(), wire.size(), out);
    EXPECT_EQ(res.status, DecodeStatus::Error);
}

TEST(Protocol, OverlongMachineIdAndRowAreRejected)
{
    Rng rng(31);
    SampleFrame sample = makeSample(rng, 4);
    sample.machineId.assign(kMaxMachineIdLen + 1, 'x');
    std::vector<std::uint8_t> wire;
    EXPECT_THROW(encodeSample(sample, wire), RecoverableError);

    sample = makeSample(rng, 4);
    sample.row.assign(kMaxRowLen + 1, 0.0);
    wire.clear();
    EXPECT_THROW(encodeSample(sample, wire), RecoverableError);
}

TEST(Protocol, DecodeFrameOrRaiseContract)
{
    Rng rng(37);
    std::vector<std::uint8_t> wire;
    encodeSample(makeSample(rng, 8), wire);

    Frame out;
    std::size_t consumed = 0;
    // Prefix: false, no throw.
    EXPECT_FALSE(
        decodeFrameOrRaise(wire.data(), wire.size() - 1, out,
                           consumed));
    // Whole frame: true.
    EXPECT_TRUE(decodeFrameOrRaise(wire.data(), wire.size(), out,
                                   consumed));
    EXPECT_EQ(consumed, wire.size());
    // Corrupt frame: raises the library's recoverable error.
    wire[wire.size() / 2] ^= 0x5a;
    EXPECT_THROW(
        decodeFrameOrRaise(wire.data(), wire.size(), out, consumed),
        RecoverableError);
}

TEST(Protocol, JsonlRoundTrip)
{
    Rng rng(41);
    SampleFrame sample = makeSample(rng, 6);
    // JSONL carries tick as a JSON number (53-bit integer
    // precision); binary framing is the exact-u64 path.
    sample.tick %= 1ull << 53;
    sample.hasMetered = true;
    sample.meteredW = 123.25;

    Frame frame;
    frame.type = FrameType::Sample;
    frame.sample = sample;
    const std::string line = encodeJsonl(frame);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');

    Frame decoded;
    const DecodeResult res = decodeJsonlLine(
        line.substr(0, line.size() - 1), decoded);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(decoded.type, FrameType::Sample);
    EXPECT_EQ(decoded.sample.tick, sample.tick);
    EXPECT_EQ(decoded.sample.machineId, sample.machineId);
    ASSERT_EQ(decoded.sample.row.size(), sample.row.size());
    for (std::size_t i = 0; i < sample.row.size(); ++i)
        EXPECT_DOUBLE_EQ(decoded.sample.row[i], sample.row[i]);

    // NaN row values travel as JSON null and come back NaN.
    sample.row[0] = std::numeric_limits<double>::quiet_NaN();
    frame.sample = sample;
    const std::string nanLine = encodeJsonl(frame);
    const DecodeResult nanRes = decodeJsonlLine(
        nanLine.substr(0, nanLine.size() - 1), decoded);
    ASSERT_EQ(nanRes.status, DecodeStatus::Ok) << nanRes.error;
    EXPECT_TRUE(std::isnan(decoded.sample.row[0]));
}

TEST(Protocol, MalformedJsonlLinesError)
{
    Frame out;
    for (const char *bad :
         {"{", "{}", "{\"type\": \"wat\"}", "not json at all",
          "{\"type\": \"sample\"}",
          "{\"type\": \"sample\", \"machine\": 3, \"tick\": 0, "
          "\"row\": []}"}) {
        const DecodeResult res = decodeJsonlLine(bad, out);
        EXPECT_EQ(res.status, DecodeStatus::Error) << bad;
    }
}

TEST(Protocol, JsonlReaderModeAndUnterminatedLineCap)
{
    // A stream starting with '{' commits the reader to JSONL.
    FrameReader reader;
    Frame frame;
    frame.type = FrameType::Credit;
    const std::string line = encodeJsonl(frame);
    Frame out;
    reader.append(
        reinterpret_cast<const std::uint8_t *>(line.data()),
        line.size());
    EXPECT_EQ(reader.next(out), DecodeStatus::Ok);
    EXPECT_TRUE(reader.jsonlMode());
    EXPECT_EQ(out.type, FrameType::Credit);

    // An endless unterminated line must hit the size cap, not grow
    // the buffer forever.
    FrameReader hog;
    std::vector<std::uint8_t> junk(kMaxPayloadLen + 2, 'a');
    junk[0] = '{';
    hog.append(junk.data(), junk.size());
    EXPECT_EQ(hog.next(out), DecodeStatus::Error);
}

TEST(Protocol, IntrospectAndSnapshotRoundTrip)
{
    IntrospectFrame ask;
    ask.seq = 0xfeedface12345678ull;
    std::vector<std::uint8_t> buf;
    encodeIntrospect(ask, buf);

    Frame out;
    std::size_t consumed = 0;
    ASSERT_TRUE(decodeFrameOrRaise(buf.data(), buf.size(), out,
                                   consumed));
    EXPECT_EQ(consumed, buf.size());
    ASSERT_EQ(out.type, FrameType::Introspect);
    EXPECT_EQ(out.introspect.seq, ask.seq);

    SnapshotFrame reply;
    reply.seq = ask.seq;
    reply.json = "{\"type\": \"chaos_top\", \"fleet\": {\"w\": 1.5},"
                 " \"stage_latency\": {\"e2e_us\": {\"p99\": 42}}}";
    buf.clear();
    encodeSnapshot(reply, buf);
    ASSERT_TRUE(decodeFrameOrRaise(buf.data(), buf.size(), out,
                                   consumed));
    EXPECT_EQ(consumed, buf.size());
    ASSERT_EQ(out.type, FrameType::Snapshot);
    EXPECT_EQ(out.snapshot.seq, reply.seq);
    EXPECT_EQ(out.snapshot.json, reply.json);
}

TEST(Protocol, SnapshotSurvivesSingleByteFragmentation)
{
    SnapshotFrame reply;
    reply.seq = 7;
    reply.json = "{\"nested\": {\"deep\": [1, 2, 3]}, "
                 "\"text\": \"quoted \\\"stuff\\\" here\"}";
    std::vector<std::uint8_t> buf;
    encodeIntrospect(IntrospectFrame{3}, buf);
    encodeSnapshot(reply, buf);

    FrameReader reader;
    Frame out;
    int decoded = 0;
    for (std::uint8_t byte : buf) {
        reader.append(&byte, 1);
        while (reader.next(out) == DecodeStatus::Ok) {
            ++decoded;
            if (out.type == FrameType::Snapshot) {
                EXPECT_EQ(out.snapshot.seq, reply.seq);
                EXPECT_EQ(out.snapshot.json, reply.json);
            }
        }
    }
    EXPECT_EQ(decoded, 2);
}

TEST(Protocol, IntrospectAndSnapshotJsonlRoundTrip)
{
    Frame frame;
    frame.type = FrameType::Introspect;
    frame.introspect.seq = 99;
    Frame out;
    std::string line = encodeJsonl(frame);
    ASSERT_EQ(decodeJsonlLine(line.substr(0, line.size() - 1), out)
                  .status,
              DecodeStatus::Ok);
    ASSERT_EQ(out.type, FrameType::Introspect);
    EXPECT_EQ(out.introspect.seq, 99u);

    // The snapshot payload travels as an escaped string on the JSONL
    // path; quotes and newlines inside it must survive.
    frame.type = FrameType::Snapshot;
    frame.snapshot.seq = 99;
    frame.snapshot.json =
        "{\"msg\": \"line one\\nline two \\\"quoted\\\"\"}";
    line = encodeJsonl(frame);
    const DecodeResult res =
        decodeJsonlLine(line.substr(0, line.size() - 1), out);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(out.type, FrameType::Snapshot);
    EXPECT_EQ(out.snapshot.seq, 99u);
    EXPECT_EQ(out.snapshot.json, frame.snapshot.json);
}

TEST(Protocol, SnapshotEncodeRejectsBadPayloads)
{
    std::vector<std::uint8_t> buf;
    SnapshotFrame bad;
    bad.seq = 1;
    bad.json = "{\"unterminated\": ";
    EXPECT_RAISES(encodeSnapshot(bad, buf),
                  "not well-formed JSON");

    // A payload that would overflow the frame cap is a caller bug
    // surfaced at encode time, never a giant frame on the wire.
    SnapshotFrame huge;
    huge.seq = 1;
    huge.json = "{\"pad\": \"" +
                std::string(kMaxPayloadLen, 'x') + "\"}";
    EXPECT_RAISES(encodeSnapshot(huge, buf), "size cap");
}

TEST(Protocol, SnapshotDecodeRejectsNonJsonPayload)
{
    // encodeSnapshot refuses bad payloads, so hand-corrupt a valid
    // frame and re-seal its CRC: the decoder must then reject on the
    // JSON check, not the checksum.
    SnapshotFrame ok;
    ok.seq = 5;
    ok.json = "{\"a\": 1}";
    std::vector<std::uint8_t> buf;
    encodeSnapshot(ok, buf);
    buf[buf.size() - ok.json.size()] = '?'; // "{" -> "?"
    const std::size_t payloadLen = buf.size() - kHeaderSize;
    std::uint32_t crc = crc32(buf.data() + 2, 6);
    crc = crc32(buf.data() + kHeaderSize, payloadLen, crc);
    for (int i = 0; i < 4; ++i)
        buf[8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));

    Frame out;
    const DecodeResult res = decodeFrame(buf.data(), buf.size(), out);
    ASSERT_EQ(res.status, DecodeStatus::Error);
    EXPECT_NE(res.error.find("not JSON"), std::string::npos)
        << res.error;

    const DecodeResult jres = decodeJsonlLine(
        "{\"type\": \"snapshot\", \"seq\": 2, \"json\": \"not json\"}",
        out);
    EXPECT_EQ(jres.status, DecodeStatus::Error);
    EXPECT_NE(jres.error.find("not JSON"), std::string::npos)
        << jres.error;
}

/** splitmix64: the golden corpus's own generator, fixed forever. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** FNV-1a 64 of @p bytes: a digest that shares nothing with crc32. */
std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xF];
    }
    return out;
}

/**
 * The golden corpus: 300 rounds of one Sample frame (row 0..399 wide,
 * every 7th row empty, every 5th metered value NaN, every 11th id the
 * full 256 bytes; row values are arbitrary bit patterns, NaN payloads
 * included) followed by one Credit, Nack, Introspect and Snapshot
 * frame. All values come from splitmix64, not from chaos::Rng, so the
 * corpus depends on nothing but the encoders.
 */
std::vector<std::uint8_t>
goldenCorpus()
{
    std::uint64_t state = 2012;
    const auto next = [&] { return splitmix64(state); };
    std::vector<std::uint8_t> wire;
    for (std::uint64_t i = 0; i < 300; ++i) {
        SampleFrame sample;
        sample.tick = next();
        sample.machineId =
            i % 11 == 0
                ? std::string(kMaxMachineIdLen,
                              static_cast<char>('a' + i % 26))
                : "m" + std::to_string(next() % 100000);
        sample.hasMetered = i % 3 != 0;
        sample.meteredW =
            i % 5 == 0 ? std::numeric_limits<double>::quiet_NaN()
                       : std::bit_cast<double>(next());
        sample.row.resize(i % 7 == 0 ? 0 : next() % 400);
        for (double &v : sample.row)
            v = std::bit_cast<double>(next());
        encodeSample(sample, wire);

        CreditFrame credit;
        credit.acceptedTotal = next();
        credit.rejectedTotal = next();
        credit.granted = static_cast<std::uint32_t>(next());
        encodeCredit(credit, wire);

        NackFrame nack;
        nack.rejectedTotal = next();
        nack.reason = static_cast<NackReason>(1 + i % 3);
        encodeNack(nack, wire);

        IntrospectFrame ask;
        ask.seq = next();
        encodeIntrospect(ask, wire);

        SnapshotFrame reply;
        reply.seq = next();
        reply.json = "{\"round\": " + std::to_string(i) +
                     ", \"pad\": \"" + std::string(next() % 64, 'x') +
                     "\"}";
        encodeSnapshot(reply, wire);
    }
    return wire;
}

TEST(Protocol, GoldenWireBytes)
{
    // Pinned from the byte-at-a-time encoder that first shipped this
    // protocol: any codec change that moves one byte fails here.
    const std::vector<std::uint8_t> corpus = goldenCorpus();
    EXPECT_EQ(corpus.size(), 487509u);
    EXPECT_EQ(fnv1a64(corpus), 1769097846151846677ull);

    std::vector<std::uint8_t> wire;
    SampleFrame sample;
    sample.tick = 3;
    sample.machineId = "m0";
    sample.hasMetered = true;
    sample.meteredW = 93.5;
    sample.row = {1.0, -2.5};
    encodeSample(sample, wire);
    EXPECT_EQ(hex(wire),
              "4357010127000000a88de878" // Header, 39-byte payload.
              "0300000000000000"         // tick 3
              "02006d30"                 // id "m0"
              "01" "0000000000605740"    // metered 93.5
              "0200" "000000000000f03f"  // row [1.0,
              "00000000000004c0");       //      -2.5]

    wire.clear();
    SampleFrame empty;
    empty.tick = 4;
    empty.machineId = "m1";
    encodeSample(empty, wire); // Unmetered (NaN), empty row.
    EXPECT_EQ(hex(wire),
              "4357010117000000a0cdb197" // Header, 23-byte payload.
              "0400000000000000"         // tick 4
              "02006d31"                 // id "m1"
              "00" "000000000000f87f"    // unmetered, NaN
              "0000");                   // row []

    wire.clear();
    encodeCredit(CreditFrame{10, 2, 12}, wire);
    EXPECT_EQ(hex(wire), "4357010214000000835e023f"
                         "0a00000000000000" "0200000000000000"
                         "0c000000");

    wire.clear();
    encodeNack(NackFrame{2, NackReason::UnknownMachine}, wire);
    EXPECT_EQ(hex(wire), "435701030900000096be2455"
                         "0200000000000000" "02");

    wire.clear();
    encodeIntrospect(IntrospectFrame{7}, wire);
    EXPECT_EQ(hex(wire), "4357010408000000c08dc480"
                         "0700000000000000");

    wire.clear();
    encodeSnapshot(SnapshotFrame{7, "{}"}, wire);
    EXPECT_EQ(hex(wire), "435701050a0000001108c0a3"
                         "0700000000000000" "7b7d");

    // The corpus decodes back frame for frame.
    FrameReader reader;
    reader.append(corpus.data(), corpus.size());
    Frame out;
    std::size_t frames = 0;
    while (reader.next(out) == DecodeStatus::Ok)
        ++frames;
    EXPECT_TRUE(reader.error().empty()) << reader.error();
    EXPECT_EQ(frames, 300u * 5);
    EXPECT_EQ(reader.buffered(), 0u);
}

} // namespace
} // namespace chaos::net
