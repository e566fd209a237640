#include "svc/cot_server.h"

#include "common/rng.h"
#include "common/trace.h"

namespace ironman::svc {

CotServer::CotServer(Config cfg)
    : cfg_(cfg),
      pool_(EnginePool::Config{.threads = cfg.engineThreads}),
      server_(cfg.maxSessions)
{
    server_.setMetricsPrefix("cot");
    server_.setHandler([this](net::SocketChannel &ch, uint64_t sid) {
        serveSession(ch, sid);
    });
    server_.setSessionRecvTimeout(cfg_.sessionRecvTimeoutMs);
    server_.setSessionSendTimeout(cfg_.sessionSendTimeoutMs);
    server_.setIdleTimeout(cfg_.idleTimeoutMs);
}

CotServer::~CotServer()
{
    stop();
}

uint16_t
CotServer::listenTcp(uint16_t port)
{
    return server_.listenTcp(port);
}

void
CotServer::listenUnix(const std::string &path)
{
    server_.listenUnix(path);
}

void
CotServer::stop()
{
    server_.stop();
}

bool
CotServer::drain(uint64_t timeout_ms)
{
    return server_.drain(timeout_ms);
}

size_t
CotServer::activeSessions() const
{
    return server_.activeSessions();
}

Status
CotServer::admitSession(const std::string &client, const Hello &hello)
{
    if (!paramsAllowed(hello.params.toFerretParams(),
                       cfg_.paramsAllowlist))
        return Status::ParamsNotAllowed;
    // No per-client policy -> no per-client bookkeeping: a public
    // daemon must not grow a map entry per peer address for nothing.
    if (cfg_.maxSessionsPerClient == 0 && cfg_.maxBytesPerClient == 0)
        return Status::Ok;
    std::lock_guard<std::mutex> lock(m);
    ClientUsage &usage = clients[client];
    if (cfg_.maxSessionsPerClient > 0 &&
        usage.sessions >= cfg_.maxSessionsPerClient)
        return Status::SessionQuota;
    if (cfg_.maxBytesPerClient > 0 &&
        usage.bytes >= cfg_.maxBytesPerClient)
        return Status::ByteQuota;
    ++usage.sessions;
    return Status::Ok;
}

uint64_t
CotServer::bytesServedTo(const std::string &client_addr) const
{
    std::lock_guard<std::mutex> lock(m);
    const auto it = clients.find(client_addr);
    return it == clients.end() ? 0 : it->second.bytes;
}

void
CotServer::serveSession(net::SocketChannel &ch, uint64_t sid)
{
    // The epilogue runs on every exit, a failed session's unwind
    // included; the skeleton's handler wrapper classifies the failure.
    struct Epilogue
    {
        CotServer &server;
        net::SocketChannel &ch;
        uint64_t sid;

        ~Epilogue()
        {
            const Config &cfg = server.cfg_;
            if (cfg.maxSessionsPerClient > 0 || cfg.maxBytesPerClient > 0) {
                std::lock_guard<std::mutex> lock(server.m);
                server.clients[ch.peerAddress()].bytes += ch.bytesSent();
            }
            if (server.sessionEndSink)
                server.sessionEndSink(sid);
        }
    } epilogue{*this, ch, sid};

    Hello hello;
    Status st = recvHello(ch, &hello);
    trace::note("hello", uint32_t(st));
    if (st == Status::Ok)
        st = admitSession(ch.peerAddress(), hello);
    // Before the Accept: the client can only quote this sid once
    // it has read the Accept, so observers are already up to date.
    if (st == Status::Ok && sessionStartSink)
        sessionStartSink(sid, ch.peerAddress());
    sendAccept(ch, Accept{st, sid});
    ch.flush();
    trace::note("accept", uint32_t(st));
    if (st == Status::Ok) {
        if (hello.role == Role::Receiver)
            serveSenderSession(ch, sid, hello);
        else
            serveReceiverSession(ch, sid, hello);
        served.fetch_add(1, std::memory_order_relaxed);
    } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
    }
}

void
CotServer::serveSenderSession(net::SocketChannel &ch, uint64_t sid,
                              const Hello &hello)
{
    const ot::FerretParams p = hello.params.toFerretParams();
    ot::CotSenderBatch half;
    Block delta;
    dealSessionBase(p, hello.setupSeed, &half, nullptr, &delta);

    EnginePool::SenderLease lease = pool_.checkoutSender(p);
    lease->resetSession(ch, delta, half.q.data(), half.q.size());

    Rng rng(senderRngSeed(hello.setupSeed));
    std::vector<Block> out(p.usableOts());
    for (uint64_t iter = 0;; ++iter) {
        const Op op = recvOp(ch);
        trace::note("op", uint32_t(op));
        if (op != Op::Extend)
            break;
        lease->extendInto(rng, out.data());
        ch.flush();
        trace::note("extend", uint32_t(iter), out.size() * sizeof(Block));
        extensions.fetch_add(1, std::memory_order_relaxed);
        cots.fetch_add(out.size(), std::memory_order_relaxed);
        if (senderSink)
            senderSink(
                SenderBatch{sid, iter, delta, out.data(), out.size()});
    }
}

void
CotServer::serveReceiverSession(net::SocketChannel &ch, uint64_t sid,
                                const Hello &hello)
{
    const ot::FerretParams p = hello.params.toFerretParams();
    ot::CotReceiverBatch half;
    dealSessionBase(p, hello.setupSeed, nullptr, &half, nullptr);

    EnginePool::ReceiverLease lease = pool_.checkoutReceiver(p);
    lease->resetSession(ch, half.choice, half.t.data(), half.t.size());

    Rng rng(receiverRngSeed(hello.setupSeed));
    BitVec choice;
    std::vector<Block> out(p.usableOts());
    for (uint64_t iter = 0;; ++iter) {
        const Op op = recvOp(ch);
        trace::note("op", uint32_t(op));
        if (op != Op::Extend)
            break;
        lease->extendInto(rng, choice, out.data());
        ch.flush();
        trace::note("extend", uint32_t(iter), out.size() * sizeof(Block));
        extensions.fetch_add(1, std::memory_order_relaxed);
        cots.fetch_add(out.size(), std::memory_order_relaxed);
        if (receiverSink)
            receiverSink(ReceiverBatch{sid, iter, &choice, out.data(),
                                       out.size()});
    }
}

void
CotServer::setSenderSink(std::function<void(const SenderBatch &)> fn)
{
    senderSink = std::move(fn);
}

void
CotServer::setReceiverSink(std::function<void(const ReceiverBatch &)> fn)
{
    receiverSink = std::move(fn);
}

void
CotServer::setSessionStartSink(
    std::function<void(uint64_t, const std::string &)> fn)
{
    sessionStartSink = std::move(fn);
}

void
CotServer::setSessionEndSink(std::function<void(uint64_t)> fn)
{
    sessionEndSink = std::move(fn);
}

} // namespace ironman::svc
