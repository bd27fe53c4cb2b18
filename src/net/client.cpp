#include "net/client.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <poll.h>
#include <unistd.h>

#include "util/result.hpp"

namespace chaos::net {

IngestClient::IngestClient(IngestClientConfig config)
    : cfg(std::move(config))
{
    if (cfg.window == 0)
        cfg.window = 1;
    inBuf.resize(16 * 1024);
    latencyRing.reserve(cfg.maxLatencySamples);
}

IngestClient::~IngestClient() { close(); }

void
IngestClient::connect()
{
    sock = connectTcp(cfg.host, cfg.port);
}

void
IngestClient::close()
{
    sock.reset();
}

void
IngestClient::send(std::uint64_t tick, const std::string &machineId,
                   const double *row, std::size_t rowSize,
                   double meteredW)
{
    raiseIf(!sock.valid(), "net: client not connected");
    while (inFlight() >= cfg.window) {
        raiseIf(pump(/*blocking=*/true) == 0,
                "net: ack window stalled (server not acking)");
    }

    const bool hasMetered = !std::isnan(meteredW);
    if (cfg.jsonl) {
        Frame out;
        out.type = FrameType::Sample;
        out.sample.tick = tick;
        out.sample.machineId = machineId;
        out.sample.hasMetered = hasMetered;
        out.sample.meteredW = meteredW;
        out.sample.row.assign(row, row + rowSize);
        const std::string line = encodeJsonl(out);
        outBuf.insert(outBuf.end(), line.begin(), line.end());
    } else {
        encodeSample(tick, machineId, hasMetered, meteredW, row, rowSize,
                     outBuf);
    }
    if (outBuf.size() >= cfg.coalesceBytes)
        flushSendBuffer();
    ++sentCount;
    sendTimes.push_back(std::chrono::steady_clock::now());

    // Opportunistically drain acks so the deque stays short.
    pump(/*blocking=*/false);
}

std::size_t
IngestClient::pump(bool blocking)
{
    raiseIf(!sock.valid(), "net: client not connected");
    // The server can only ack what it has received: push any
    // coalesced frames out before waiting on the socket.
    if (blocking)
        flushSendBuffer();
    std::size_t consumed = 0;
    while (true) {
        // Decode everything already buffered first.
        while (reader.next(frame) == DecodeStatus::Ok) {
            handleAck(frame);
            ++consumed;
        }
        raiseIf(!reader.error().empty(),
                "net: protocol error from server: " + reader.error());
        if (consumed > 0 || !blocking)
            break;

        pollfd pfd{sock.fd(), POLLIN, 0};
        const int ready = ::poll(&pfd, 1, cfg.ackTimeoutMs);
        raiseIf(ready < 0 && errno != EINTR,
                std::string("net: poll: ") + std::strerror(errno));
        if (ready == 0)
            return 0; // Timed out with nothing consumed.

        const ssize_t n =
            ::read(sock.fd(), inBuf.data(), inBuf.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            raise(std::string("net: read: ") + std::strerror(errno));
        }
        if (n == 0) {
            sock.reset();
            raise("net: connection closed by server" +
                  (nackCounts[static_cast<int>(
                       NackReason::BadSample)] > 0
                       ? std::string(" (after bad-sample nack)")
                       : std::string()));
        }
        reader.append(inBuf.data(), static_cast<std::size_t>(n));
    }
    return consumed;
}

bool
IngestClient::drain()
{
    while (inFlight() > 0) {
        if (pump(/*blocking=*/true) == 0)
            return false;
    }
    return true;
}

std::uint64_t
IngestClient::nacks(NackReason reason) const
{
    const int idx = static_cast<int>(reason);
    return idx >= 0 && idx < 4 ? nackCounts[idx] : 0;
}

std::vector<double>
IngestClient::latenciesMs() const
{
    return latencyRing;
}

void
IngestClient::handleAck(const Frame &ack)
{
    if (ack.type == FrameType::Nack) {
        const int idx = static_cast<int>(ack.nack.reason);
        if (idx >= 0 && idx < 4)
            ++nackCounts[idx];
        // Totals advance on the next Credit frame; a Nack alone is
        // advisory (reason + running rejected count).
        return;
    }
    if (ack.type != FrameType::Credit)
        return;

    acceptedTotal = ack.credit.acceptedTotal;
    rejectedTotal = ack.credit.rejectedTotal;

    // Every sample now covered by the cumulative totals completes a
    // round trip; record its latency and drop its send stamp.
    const std::uint64_t covered = acceptedTotal + rejectedTotal;
    const auto now = std::chrono::steady_clock::now();
    while (sendTimes.size() > sentCount - std::min(covered, sentCount)) {
        const double ms =
            std::chrono::duration<double, std::milli>(
                now - sendTimes.front())
                .count();
        sendTimes.pop_front();
        if (latencyRing.size() < cfg.maxLatencySamples)
            latencyRing.push_back(ms);
        else
            latencyRing[latencyCount % cfg.maxLatencySamples] = ms;
        ++latencyCount;
    }
}

void
IngestClient::flushSendBuffer()
{
    if (outBuf.empty())
        return;
    writeAll(outBuf.data(), outBuf.size());
    outBuf.clear();
}

void
IngestClient::writeAll(const std::uint8_t *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n =
            ::write(sock.fd(), data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const std::string msg =
                std::string("net: write: ") + std::strerror(errno);
            sock.reset();
            raise(msg);
        }
        off += static_cast<std::size_t>(n);
    }
}

std::string
fetchSnapshot(const std::string &host, std::uint16_t port,
              std::uint64_t seq, int timeoutMs)
{
    OwnedFd sock = connectTcp(host, port);

    IntrospectFrame request;
    request.seq = seq;
    std::vector<std::uint8_t> encoded;
    encodeIntrospect(request, encoded);
    std::size_t off = 0;
    while (off < encoded.size()) {
        const ssize_t n = ::write(sock.fd(), encoded.data() + off,
                                  encoded.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            raise(std::string("net: introspect write: ") +
                  std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }

    FrameReader reader;
    Frame frame;
    std::uint8_t chunk[16 * 1024];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (true) {
        DecodeStatus status;
        while ((status = reader.next(frame)) == DecodeStatus::Ok) {
            if (frame.type == FrameType::Snapshot &&
                frame.snapshot.seq == seq)
                return frame.snapshot.json;
            // Credit/Nack chatter for other traffic on this
            // connection (there is none, but a server is allowed to
            // send them): keep waiting for the snapshot.
        }
        raiseIf(status == DecodeStatus::Error,
                "net: introspect: " + reader.error());

        const auto now = std::chrono::steady_clock::now();
        raiseIf(now >= deadline,
                "net: introspect timed out waiting for snapshot");
        pollfd pfd{sock.fd(), POLLIN, 0};
        const int remainMs = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        const int ready = ::poll(&pfd, 1, std::max(remainMs, 1));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            raise(std::string("net: introspect poll: ") +
                  std::strerror(errno));
        }
        if (ready == 0)
            continue; // Deadline check above raises next round.
        const ssize_t n = ::read(sock.fd(), chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            raise(std::string("net: introspect read: ") +
                  std::strerror(errno));
        }
        raiseIf(n == 0,
                "net: server closed before sending the snapshot");
        reader.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace chaos::net
