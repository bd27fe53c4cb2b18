#include "net/ingest_server.hpp"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/stage_metrics.hpp"
#include "util/result.hpp"

namespace chaos::net {

namespace {

/** chaos.net.* metrics (Scheduling: counts depend on peer timing). */
struct NetMetrics
{
    obs::Gauge &connections;
    obs::Counter &connectionsTotal;
    obs::Counter &connectionsDropped;
    obs::Counter &frames;
    obs::Counter &badFrames;
    obs::Counter &samples;
    obs::Counter &rejected;
    obs::Counter &nacks;
    obs::Counter &credits;
    obs::Counter &backpressure;
    obs::Counter &introspects;
    obs::Counter &bytesIn;
    obs::Counter &bytesOut;

    static NetMetrics &
    get()
    {
        auto &registry = obs::Registry::instance();
        static NetMetrics m{
            registry.gauge("chaos.net.connections",
                           obs::Stability::Scheduling),
            registry.counter("chaos.net.connections_total",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.connections_dropped",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.frames",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.bad_frames",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.samples",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.rejected",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.nacks",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.credits",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.backpressure",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.introspects",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.bytes_in",
                             obs::Stability::Scheduling),
            registry.counter("chaos.net.bytes_out",
                             obs::Stability::Scheduling),
        };
        return m;
    }
};

std::string
peerName(int fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    if (::getpeername(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0)
        return "?";
    char buf[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
    return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

} // namespace

/**
 * Per-connection state, owned by the poll thread. Stats counters are
 * atomics so stats() can read them from other threads without a lock;
 * everything else (reader, buffers, totals) is poll-thread-only.
 */
struct ChaosIngestServer::Connection
{
    OwnedFd fd;
    std::uint64_t id = 0;
    std::string peer;

    FrameReader reader;
    Frame frame; ///< Reused decode target.
    std::vector<std::uint8_t> inChunk;

    std::vector<std::uint8_t> outBuf;
    std::size_t outPos = 0;

    /** Cumulative disposition totals carried on Credit frames. */
    std::uint64_t acceptedTotal = 0;
    std::uint64_t rejectedTotal = 0;
    /** Samples disposed of since the last Credit frame. */
    std::uint64_t sinceCredit = 0;
    /** True inside a saturation episode (one event per episode). */
    bool backpressureEpisode = false;

    /** Registry lookups cached per connection. */
    std::unordered_map<std::string, serve::MachineEntry *> entries;

    // Cross-thread-visible accounting (stats()).
    std::atomic<bool> openFlag{true};
    std::atomic<bool> sawJsonl{false};
    std::atomic<std::uint64_t> bytesIn{0};
    std::atomic<std::uint64_t> bytesOut{0};
    std::atomic<std::uint64_t> framesIn{0};
    std::atomic<std::uint64_t> samplesAccepted{0};
    std::atomic<std::uint64_t> rejectedBackpressure{0};
    std::atomic<std::uint64_t> rejectedUnknown{0};
    std::atomic<std::uint64_t> badFrames{0};
    /** Written by the poll thread before openFlag drops; read by
     *  stats() only once openFlag is false (release/acquire pair). */
    std::string closeReason;
    bool closedOnError = false;
};

ChaosIngestServer::ChaosIngestServer(serve::FleetServer &server,
                                     IngestServerConfig config)
    : fleet(server), cfg(std::move(config))
{
    if (cfg.creditBatch == 0)
        cfg.creditBatch = 128;
    if (cfg.pollTimeoutMs <= 0)
        cfg.pollTimeoutMs = 20;
}

ChaosIngestServer::~ChaosIngestServer() { stop(); }

void
ChaosIngestServer::start()
{
    raiseIf(runningFlag.load(), "net: ingest server already running");
    auto [sock, port] = listenTcp(cfg.bindAddress, cfg.port);
    listener = std::move(sock);
    boundPort = port;

    int pipeFds[2];
    raiseIf(::pipe(pipeFds) != 0, "net: pipe failed");
    wakeRead = OwnedFd(pipeFds[0]);
    wakeWrite = OwnedFd(pipeFds[1]);
    setNonBlocking(wakeRead.fd());

    stopRequested.store(false);
    runningFlag.store(true);
    pollThread = std::thread([this] { loop(); });
}

void
ChaosIngestServer::stop()
{
    if (!runningFlag.load())
        return;
    stopRequested.store(true);
    if (wakeWrite.valid()) {
        const char byte = 0;
        ssize_t n;
        do {
            n = ::write(wakeWrite.fd(), &byte, 1);
        } while (n < 0 && errno == EINTR);
    }
    if (pollThread.joinable())
        pollThread.join();
    runningFlag.store(false);
    listener.reset();
    wakeRead.reset();
    wakeWrite.reset();
}

void
ChaosIngestServer::loop()
{
    std::vector<pollfd> fds;
    while (!stopRequested.load()) {
        fds.clear();
        fds.push_back({listener.fd(), POLLIN, 0});
        fds.push_back({wakeRead.fd(), POLLIN, 0});
        for (const auto &conn : live) {
            short events = POLLIN;
            if (conn->outPos < conn->outBuf.size())
                events |= POLLOUT;
            fds.push_back({conn->fd.fd(), events, 0});
        }

        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()),
                           cfg.pollTimeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break; // Listener state is unrecoverable; shut down.
        }
        if (stopRequested.load())
            break;

        // Connections accepted below are not in this poll round's
        // fds; only the first `polled` live entries have revents.
        const std::size_t polled = fds.size() - 2;
        if (fds[0].revents & POLLIN)
            acceptPending();

        // Visit connections back to front so closing (swap-remove)
        // does not disturb unvisited indices.
        for (std::size_t i = polled; i-- > 0;) {
            Connection &conn = *live[i];
            const short revents = fds[2 + i].revents;
            bool alive = true;
            if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
                // Drain what the peer managed to send, then close.
                alive = handleReadable(conn);
                if (alive) {
                    closeConnection(conn, "", false);
                    alive = false;
                }
            } else {
                if (revents & POLLIN)
                    alive = handleReadable(conn);
                if (alive && (revents & POLLOUT))
                    alive = flushWrites(conn);
            }
            if (!alive) {
                live[i] = std::move(live.back());
                live.pop_back();
            }
        }

        // Idle credit flush: ack stragglers below the batch threshold
        // so trickle-rate clients see their window replenished within
        // one poll interval.
        for (std::size_t i = live.size(); i-- > 0;) {
            Connection &conn = *live[i];
            if (conn.sinceCredit > 0)
                queueCredit(conn);
            if (conn.outPos < conn.outBuf.size() &&
                !flushWrites(conn)) {
                live[i] = std::move(live.back());
                live.pop_back();
            }
        }
    }

    for (const auto &conn : live) {
        if (conn->openFlag.load())
            closeConnection(*conn, "server stopped", false);
    }
    live.clear();
}

void
ChaosIngestServer::acceptPending()
{
    while (true) {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or transient accept failure.
        }
        OwnedFd sock(fd);
        if (live.size() >= cfg.maxConnections) {
            refusedConns.fetch_add(1);
            continue; // sock closes: connection refused by policy.
        }
        setNonBlocking(sock.fd());
        const int one = 1;
        ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));

        auto conn = std::make_shared<Connection>();
        conn->peer = peerName(sock.fd());
        conn->fd = std::move(sock);
        conn->id = nextConnId.fetch_add(1);
        conn->inChunk.resize(cfg.readChunk);
        live.push_back(conn);
        {
            std::lock_guard<std::mutex> lock(statsMu);
            all.push_back(std::move(conn));
        }
        acceptedConns.fetch_add(1);
        NetMetrics::get().connectionsTotal.add();
        NetMetrics::get().connections.add(1);
    }
}

bool
ChaosIngestServer::handleReadable(Connection &conn)
{
    while (true) {
        const ssize_t n = ::read(conn.fd.fd(), conn.inChunk.data(),
                                 conn.inChunk.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            closeConnection(conn,
                            std::string("read error: ") +
                                std::strerror(errno),
                            true);
            return false;
        }
        if (n == 0) {
            // EOF: decode whatever is already buffered, then close.
            if (!processFrames(conn))
                return false;
            closeConnection(conn, "", false);
            return false;
        }
        conn.bytesIn.fetch_add(static_cast<std::uint64_t>(n));
        NetMetrics::get().bytesIn.add(static_cast<std::uint64_t>(n));
        conn.reader.append(conn.inChunk.data(),
                           static_cast<std::size_t>(n));
        if (!processFrames(conn))
            return false;
        if (static_cast<std::size_t>(n) < conn.inChunk.size())
            return true; // Drained the socket for now.
    }
}

bool
ChaosIngestServer::processFrames(Connection &conn)
{
    while (true) {
        // The decode stamp doubles as the sample's ingest timestamp:
        // queue wait and e2e latency are measured from the moment the
        // wire bytes became a frame, not from some later requeue.
        const bool stageOn = serve::stageTracingEnabled();
        const std::uint64_t t0 = stageOn ? obs::traceNowNs() : 0;
        if (conn.reader.next(conn.frame) != DecodeStatus::Ok)
            break;
        const std::uint64_t t1 = stageOn ? obs::traceNowNs() : 0;
        if (stageOn)
            serve::StageMetrics::get().decodeUs.observe(
                static_cast<double>(t1 - t0) / 1000.0);
        conn.framesIn.fetch_add(1);
        NetMetrics::get().frames.add();
        if (conn.reader.jsonlMode())
            conn.sawJsonl.store(true);
        switch (conn.frame.type) {
        case FrameType::Sample:
            handleSample(conn, t1);
            break;
        case FrameType::Introspect:
            queueSnapshot(conn, conn.frame.introspect.seq);
            break;
        case FrameType::Credit:
        case FrameType::Nack:
        case FrameType::Snapshot:
            // Server-to-client frames; ignore if echoed back.
            break;
        }
        if (conn.outBuf.size() - conn.outPos > cfg.maxWriteBacklog) {
            closeConnection(conn, "write backlog over limit", true);
            return false;
        }
    }
    if (!conn.reader.error().empty()) {
        conn.badFrames.fetch_add(1);
        NetMetrics::get().badFrames.add();
        // Best effort: tell the peer why before closing.
        queueNack(conn, NackReason::BadSample);
        flushWrites(conn);
        if (conn.openFlag.load())
            closeConnection(conn, conn.reader.error(), true);
        return false;
    }
    if (conn.sinceCredit >= cfg.creditBatch)
        queueCredit(conn);
    return true;
}

void
ChaosIngestServer::handleSample(Connection &conn,
                                std::uint64_t ingestNs)
{
    const SampleFrame &sample = conn.frame.sample;
    NetMetrics::get().samples.add();

    serve::MachineEntry *entry = nullptr;
    auto it = conn.entries.find(sample.machineId);
    if (it != conn.entries.end()) {
        entry = it->second;
    } else {
        entry = fleet.machine(sample.machineId);
        if (entry != nullptr)
            conn.entries.emplace(sample.machineId, entry);
    }

    if (entry == nullptr) {
        ++conn.rejectedTotal;
        ++conn.sinceCredit;
        conn.rejectedUnknown.fetch_add(1);
        NetMetrics::get().rejected.add();
        queueNack(conn, NackReason::UnknownMachine);
        return;
    }

    const double meteredW =
        sample.hasMetered
            ? sample.meteredW
            : std::numeric_limits<double>::quiet_NaN();
    if (fleet.offer(*entry, sample.row.data(), sample.row.size(),
                    meteredW, ingestNs)) {
        ++conn.acceptedTotal;
        ++conn.sinceCredit;
        conn.samplesAccepted.fetch_add(1);
        if (conn.backpressureEpisode)
            conn.backpressureEpisode = false; // Episode ended.
        return;
    }

    // Shard queue full: explicit backpressure instead of drop-oldest.
    ++conn.rejectedTotal;
    ++conn.sinceCredit;
    conn.rejectedBackpressure.fetch_add(1);
    NetMetrics::get().rejected.add();
    if (!conn.backpressureEpisode) {
        conn.backpressureEpisode = true;
        NetMetrics::get().backpressure.add();
        obs::EventLog::instance().emit(
            obs::EventKind::Backpressure, conn.peer,
            "ingest rejecting samples for '" + sample.machineId +
                "': shard queue full");
    }
    queueNack(conn, NackReason::Backpressure);
}

void
ChaosIngestServer::queueCredit(Connection &conn)
{
    Frame frame;
    frame.type = FrameType::Credit;
    frame.credit.acceptedTotal = conn.acceptedTotal;
    frame.credit.rejectedTotal = conn.rejectedTotal;
    frame.credit.granted = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(conn.sinceCredit, 0xffffffffu));
    conn.sinceCredit = 0;
    credits.fetch_add(1);
    NetMetrics::get().credits.add();
    queueFrame(conn, frame);
}

void
ChaosIngestServer::queueNack(Connection &conn, NackReason reason)
{
    Frame frame;
    frame.type = FrameType::Nack;
    frame.nack.rejectedTotal = conn.rejectedTotal;
    frame.nack.reason = reason;
    nacks.fetch_add(1);
    NetMetrics::get().nacks.add();
    queueFrame(conn, frame);
}

void
ChaosIngestServer::queueSnapshot(Connection &conn, std::uint64_t seq)
{
    introspects.fetch_add(1);
    NetMetrics::get().introspects.add();

    Frame frame;
    frame.type = FrameType::Snapshot;
    frame.snapshot.seq = seq;
    frame.snapshot.json = buildIntrospectJson();
    queueFrame(conn, frame);
}

std::string
ChaosIngestServer::buildIntrospectJson() const
{
    const auto assemble = [this](bool detail) {
        serve::FleetSnapshot fleetSnap = fleet.snapshot();
        IngestStats ingest = stats();
        if (!detail) {
            fleetSnap.machines.clear();
            ingest.connections.clear();
        }
        std::ostringstream json;
        json << "{\"type\": \"chaos_top\", \"ts_ms\": "
             << fleetSnap.tsMs
             << ", \"detail\": " << (detail ? "true" : "false")
             << ", \"fleet\": " << fleetSnap.toJson()
             << ", \"ingest\": " << ingest.toJson()
             << ", \"stage_latency\": " << serve::stageLatencyJson()
             << ", \"flight\": "
             << obs::FlightRecorder::instance().snapshotJson() << "}";
        return json.str();
    };
    // Per-machine and per-connection detail scales with fleet size;
    // fall back to the headline-only form rather than exceed the
    // frame payload cap (encodeSnapshot would refuse it).
    std::string json = assemble(true);
    if (json.size() + 64 > kMaxPayloadLen)
        json = assemble(false);
    return json;
}

void
ChaosIngestServer::queueFrame(Connection &conn, const Frame &frame)
{
    // Compact the consumed prefix before growing.
    if (conn.outPos > 0 && conn.outPos == conn.outBuf.size()) {
        conn.outBuf.clear();
        conn.outPos = 0;
    } else if (conn.outPos > 4096 &&
               conn.outPos * 2 > conn.outBuf.size()) {
        conn.outBuf.erase(conn.outBuf.begin(),
                          conn.outBuf.begin() +
                              static_cast<std::ptrdiff_t>(conn.outPos));
        conn.outPos = 0;
    }
    if (conn.reader.jsonlMode()) {
        const std::string line = encodeJsonl(frame);
        conn.outBuf.insert(conn.outBuf.end(), line.begin(), line.end());
        return;
    }
    // The binary encoders append straight to the send buffer.
    switch (frame.type) {
      case FrameType::Credit:
        encodeCredit(frame.credit, conn.outBuf);
        break;
      case FrameType::Nack:
        encodeNack(frame.nack, conn.outBuf);
        break;
      case FrameType::Snapshot:
        encodeSnapshot(frame.snapshot, conn.outBuf);
        break;
      case FrameType::Sample:
      case FrameType::Introspect:
        break; // Client-to-server frames; the server never sends them.
    }
}

bool
ChaosIngestServer::flushWrites(Connection &conn)
{
    while (conn.outPos < conn.outBuf.size()) {
        const ssize_t n = ::write(
            conn.fd.fd(), conn.outBuf.data() + conn.outPos,
            conn.outBuf.size() - conn.outPos);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true; // Retry when poll reports writable.
            closeConnection(conn,
                            std::string("write error: ") +
                                std::strerror(errno),
                            true);
            return false;
        }
        conn.outPos += static_cast<std::size_t>(n);
        conn.bytesOut.fetch_add(static_cast<std::uint64_t>(n));
        NetMetrics::get().bytesOut.add(static_cast<std::uint64_t>(n));
    }
    return true;
}

void
ChaosIngestServer::closeConnection(Connection &conn,
                                   const std::string &reason,
                                   bool isError)
{
    if (!conn.openFlag.load())
        return;
    conn.closeReason = reason;
    conn.closedOnError = isError;
    conn.openFlag.store(false, std::memory_order_release);
    conn.fd.reset();
    NetMetrics::get().connections.add(-1);
    if (isError) {
        droppedConns.fetch_add(1);
        NetMetrics::get().connectionsDropped.add();
        obs::EventLog::instance().emit(
            obs::EventKind::ConnectionDrop, conn.peer,
            "ingest connection dropped: " + reason);
    }
}

IngestStats
ChaosIngestServer::stats() const
{
    IngestStats out;
    out.connectionsAccepted = acceptedConns.load();
    out.connectionsDropped = droppedConns.load();
    out.connectionsRefused = refusedConns.load();
    out.nacksSent = nacks.load();
    out.creditsSent = credits.load();
    out.introspectsServed = introspects.load();

    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(statsMu);
        conns = all;
    }
    out.connections.reserve(conns.size());
    for (const auto &conn : conns) {
        ConnectionStats cs;
        cs.id = conn->id;
        cs.peer = conn->peer;
        cs.jsonl = conn->sawJsonl.load();
        cs.open = conn->openFlag.load(std::memory_order_acquire);
        cs.bytesIn = conn->bytesIn.load();
        cs.bytesOut = conn->bytesOut.load();
        cs.framesIn = conn->framesIn.load();
        cs.samplesAccepted = conn->samplesAccepted.load();
        cs.rejectedBackpressure = conn->rejectedBackpressure.load();
        cs.rejectedUnknown = conn->rejectedUnknown.load();
        cs.badFrames = conn->badFrames.load();
        if (!cs.open)
            cs.closeReason = conn->closeReason;
        out.connectionsOpen += cs.open ? 1 : 0;
        out.bytesIn += cs.bytesIn;
        out.bytesOut += cs.bytesOut;
        out.framesIn += cs.framesIn;
        out.samplesAccepted += cs.samplesAccepted;
        out.rejectedBackpressure += cs.rejectedBackpressure;
        out.rejectedUnknown += cs.rejectedUnknown;
        out.badFrames += cs.badFrames;
        out.connections.push_back(std::move(cs));
    }
    return out;
}

std::string
IngestStats::toJson() const
{
    std::ostringstream json;
    json << "{\"connections_accepted\": " << connectionsAccepted
         << ", \"connections_open\": " << connectionsOpen
         << ", \"connections_dropped\": " << connectionsDropped
         << ", \"connections_refused\": " << connectionsRefused
         << ", \"bytes_in\": " << bytesIn
         << ", \"bytes_out\": " << bytesOut
         << ", \"frames_in\": " << framesIn
         << ", \"samples_accepted\": " << samplesAccepted
         << ", \"rejected_backpressure\": " << rejectedBackpressure
         << ", \"rejected_unknown\": " << rejectedUnknown
         << ", \"bad_frames\": " << badFrames
         << ", \"nacks_sent\": " << nacksSent
         << ", \"credits_sent\": " << creditsSent
         << ", \"introspects_served\": " << introspectsServed
         << ", \"connections\": [";
    for (std::size_t i = 0; i < connections.size(); ++i) {
        const ConnectionStats &cs = connections[i];
        if (i > 0)
            json << ", ";
        json << "{\"id\": " << cs.id << ", \"peer\": \""
             << obs::jsonEscape(cs.peer) << "\", \"jsonl\": "
             << (cs.jsonl ? "true" : "false")
             << ", \"open\": " << (cs.open ? "true" : "false")
             << ", \"bytes_in\": " << cs.bytesIn
             << ", \"bytes_out\": " << cs.bytesOut
             << ", \"frames_in\": " << cs.framesIn
             << ", \"samples_accepted\": " << cs.samplesAccepted
             << ", \"rejected_backpressure\": "
             << cs.rejectedBackpressure
             << ", \"rejected_unknown\": " << cs.rejectedUnknown
             << ", \"bad_frames\": " << cs.badFrames
             << ", \"close_reason\": \""
             << obs::jsonEscape(cs.closeReason) << "\"}";
    }
    json << "]}";
    return json.str();
}

} // namespace chaos::net
