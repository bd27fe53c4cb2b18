/**
 * @file
 * ChaosIngestServer: the network ingest boundary of the fleet serving
 * subsystem — the point where telemetry from other machines enters
 * the process, and therefore the point where corruption, overload,
 * and misbehaving peers must be absorbed without taking serving down.
 *
 * Architecture (one server):
 *
 *   clients ──TCP──> poll() listener thread
 *       per-connection FrameReader (tolerates arbitrary
 *       fragmentation; binary or JSONL framing, see net/protocol.hpp)
 *       decoded Sample frames ──offer()──> FleetServer shard queues
 *       Credit/Nack frames ──buffered writes──> clients
 *
 * Contracts:
 *
 *  - Explicit backpressure: a sample that arrives while its shard
 *    queue is full is REJECTED — the client gets a Nack (reason
 *    backpressure) and cumulative rejected counts on its next Credit
 *    frame — instead of the in-process path's silent drop-oldest.
 *    The client decides what to shed; the server never lies about
 *    what it kept. One Backpressure event is emitted per saturation
 *    episode per connection.
 *  - Corruption is connection-fatal: a frame that fails the magic,
 *    version, length, checksum, or structural checks closes the
 *    connection (after a best-effort Nack) with a ConnectionDrop
 *    event and per-connection accounting — a corrupt stream cannot
 *    resynchronize, and a half-trusted frame must never reach an
 *    estimator.
 *  - A rejected or malformed sample is never silently accepted and
 *    never crashes the server; every path increments a counter a
 *    dashboard can see (chaos.net.*) and a per-connection stat the
 *    ingest snapshot reports.
 *
 * The poll thread does decode + offer only; evaluation stays on the
 * FleetServer's drainer thread(s), so a slow model never backs up
 * into the kernel accept queue.
 */
#ifndef CHAOS_NET_INGEST_SERVER_HPP
#define CHAOS_NET_INGEST_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"

namespace chaos::net {

/** Ingest-server knobs. */
struct IngestServerConfig
{
    /** Address to bind (loopback by default). */
    std::string bindAddress = "127.0.0.1";
    /** Port to listen on; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /**
     * Send a Credit frame after this many samples were disposed of
     * (accepted or rejected) on a connection; 0 means 128. Smaller
     * batches tighten client-observed ack latency, larger ones cut
     * ack bandwidth. An idle poll cycle flushes stragglers either
     * way, so trickle-rate clients still see acks promptly.
     */
    std::size_t creditBatch = 0;
    /** Refuse connections beyond this many concurrently open. */
    std::size_t maxConnections = 4096;
    /** Bytes per read() attempt. */
    std::size_t readChunk = 64 * 1024;
    /** poll() timeout (bounds credit-flush and stop latency), ms. */
    int pollTimeoutMs = 20;
    /**
     * Close a connection whose unsent ack backlog exceeds this many
     * bytes (a client that never reads its acks would otherwise grow
     * the write buffer without bound).
     */
    std::size_t maxWriteBacklog = 4u << 20;
};

/** One connection's accounting (live or closed). */
struct ConnectionStats
{
    std::uint64_t id = 0;     ///< Accept-order id, unique per server.
    std::string peer;         ///< "addr:port" of the client.
    bool jsonl = false;       ///< JSONL framing (vs binary).
    bool open = false;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t samplesAccepted = 0;
    std::uint64_t rejectedBackpressure = 0; ///< Shard queue full.
    std::uint64_t rejectedUnknown = 0;      ///< Unregistered machine.
    std::uint64_t badFrames = 0;            ///< Corrupt input seen.
    std::string closeReason; ///< "" while open or after a clean EOF.
};

/** Whole-server ingest snapshot. */
struct IngestStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsOpen = 0;
    std::uint64_t connectionsDropped = 0; ///< Closed on error.
    std::uint64_t connectionsRefused = 0; ///< Over maxConnections.
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t samplesAccepted = 0;
    std::uint64_t rejectedBackpressure = 0;
    std::uint64_t rejectedUnknown = 0;
    std::uint64_t badFrames = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t creditsSent = 0;
    std::uint64_t introspectsServed = 0; ///< Snapshot replies sent.
    /** Per-connection attribution, accept order. */
    std::vector<ConnectionStats> connections;

    /** Serialize as one single-line JSON object. */
    std::string toJson() const;
};

/** The network ingest boundary (see file comment). */
class ChaosIngestServer
{
  public:
    /**
     * @param server Destination fleet; must outlive this object.
     */
    explicit ChaosIngestServer(serve::FleetServer &server,
                               IngestServerConfig config = {});

    /** Stops the listener (closing every connection) if running. */
    ~ChaosIngestServer();

    ChaosIngestServer(const ChaosIngestServer &) = delete;
    ChaosIngestServer &operator=(const ChaosIngestServer &) = delete;

    /**
     * Bind, listen, and spawn the poll thread. Raises
     * RecoverableError when the address cannot be bound.
     */
    void start();

    /** Close the listener and every connection; join the thread. */
    void stop();

    /** True while the poll thread runs. */
    bool running() const { return runningFlag.load(); }

    /** The bound port (meaningful after start()). */
    std::uint16_t port() const { return boundPort; }

    /** Aggregate + per-connection accounting snapshot. */
    IngestStats stats() const;

    /** The configuration the server was built with. */
    const IngestServerConfig &config() const { return cfg; }

  private:
    struct Connection;

    void loop();
    void acceptPending();
    /** @return false when the connection was closed. */
    bool handleReadable(Connection &conn);
    bool processFrames(Connection &conn);
    /** @param ingestNs Decode-time stamp (0 when tracing is off). */
    void handleSample(Connection &conn, std::uint64_t ingestNs);
    /** Build and queue the Snapshot reply to an Introspect request. */
    void queueSnapshot(Connection &conn, std::uint64_t seq);
    /**
     * Assemble the introspection snapshot JSON: fleet state, ingest
     * stats, stage-latency percentiles, and the flight-recorder
     * summary. Falls back to a headline-only form (no per-machine or
     * per-connection detail) when the full one would overflow the
     * frame payload cap.
     */
    std::string buildIntrospectJson() const;
    void queueCredit(Connection &conn);
    void queueNack(Connection &conn, NackReason reason);
    /** Append @p frame to the connection's send buffer. */
    void queueFrame(Connection &conn, const Frame &frame);
    /** @return false when the connection was closed. */
    bool flushWrites(Connection &conn);
    void closeConnection(Connection &conn, const std::string &reason,
                         bool isError);

    serve::FleetServer &fleet;
    IngestServerConfig cfg;

    OwnedFd listener;
    OwnedFd wakeRead, wakeWrite; ///< Self-pipe to interrupt poll().
    std::uint16_t boundPort = 0;

    std::thread pollThread;
    std::atomic<bool> runningFlag{false};
    std::atomic<bool> stopRequested{false};

    /** Poll-thread-owned live connections. */
    std::vector<std::shared_ptr<Connection>> live;
    /** All connections ever accepted (stats), accept order. */
    mutable std::mutex statsMu;
    std::vector<std::shared_ptr<Connection>> all;

    std::atomic<std::uint64_t> nextConnId{0};
    std::atomic<std::uint64_t> acceptedConns{0};
    std::atomic<std::uint64_t> droppedConns{0};
    std::atomic<std::uint64_t> refusedConns{0};
    std::atomic<std::uint64_t> nacks{0};
    std::atomic<std::uint64_t> credits{0};
    std::atomic<std::uint64_t> introspects{0};
};

} // namespace chaos::net

#endif // CHAOS_NET_INGEST_SERVER_HPP
