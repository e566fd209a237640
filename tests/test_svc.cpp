/**
 * @file
 * COT service-layer tests (src/svc + net::SocketChannel):
 *
 *  - wire handshake round trips and rejects bad magic/version;
 *  - SocketChannel moves framed byte streams of every awkward size
 *    with MemoryDuplex-compatible accounting;
 *  - multi-session bit-identity (invariant 12's companion): the same
 *    session seeds through CotServer + loopback-TCP SocketChannels
 *    and through direct in-process MemoryDuplex engine pairs produce
 *    IDENTICAL correlations, for 2 parameter sets x 8 concurrent
 *    sessions, both client roles;
 *  - engines are reused across session waves (the pool stops
 *    constructing once warm);
 *  - the background Reservoir and the dual-direction
 *    ReservoirCotSupply hand out correlations that pair correctly
 *    with the server-side halves.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "ferret_pair.h"
#include "net/channel.h"
#include "net/socket_channel.h"
#include "ot/ferret_params.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"
#include "svc/engine_pool.h"
#include "svc/reservoir.h"
#include "svc/wire.h"

namespace ironman::svc {
namespace {

using ot::FerretParams;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(SvcWireTest, ParamsRoundTrip)
{
    for (const FerretParams &p :
         {ot::tinyTestParams(), ot::tinyAlignedParams()}) {
        const WireParams w = WireParams::of(p);
        const FerretParams back = w.toFerretParams();
        EXPECT_EQ(back.n, p.n);
        EXPECT_EQ(back.k, p.k);
        EXPECT_EQ(back.t, p.t);
        EXPECT_EQ(back.arity, p.arity);
        EXPECT_EQ(back.prg, p.prg);
        EXPECT_EQ(back.lpnWeight, p.lpnWeight);
        EXPECT_EQ(back.lpnSeed, p.lpnSeed);
        // Derived geometry matches — engines on both ends agree.
        EXPECT_EQ(back.bucketSize(), p.bucketSize());
        EXPECT_EQ(back.treeLeaves(), p.treeLeaves());
        EXPECT_EQ(back.reservedCots(), p.reservedCots());
    }
}

TEST(SvcWireTest, HelloAcceptRoundTrip)
{
    net::MemoryDuplex duplex;
    Hello h;
    h.role = Role::Sender;
    h.setupSeed = 0xabcdef12345678ULL;
    h.params = WireParams::of(ot::tinyTestParams());
    sendHello(duplex.a(), h);

    Hello got;
    ASSERT_EQ(recvHello(duplex.b(), &got), Status::Ok);
    EXPECT_EQ(got.role, h.role);
    EXPECT_EQ(got.setupSeed, h.setupSeed);
    EXPECT_EQ(got.params.n, h.params.n);

    sendAccept(duplex.b(), Accept{Status::Ok, 42});
    const Accept a = recvAccept(duplex.a());
    EXPECT_EQ(a.status, Status::Ok);
    EXPECT_EQ(a.sessionId, 42u);
}

TEST(SvcWireTest, RejectsBadMagicAndVersion)
{
    {
        net::MemoryDuplex duplex;
        // At least one whole Hello's worth of bytes with a bad magic.
        uint8_t junk[64] = {1, 2, 3, 4};
        duplex.a().sendBytes(junk, sizeof(junk));
        Hello got;
        EXPECT_EQ(recvHello(duplex.b(), &got), Status::BadMagic);
    }
    {
        net::MemoryDuplex duplex;
        Hello h;
        h.version = kWireVersion + 1;
        h.params = WireParams::of(ot::tinyTestParams());
        sendHello(duplex.a(), h);
        Hello got;
        EXPECT_EQ(recvHello(duplex.b(), &got), Status::BadVersion);
    }
}

TEST(SvcWireTest, RejectsHostileParams)
{
    // Shapes that pass naive nonzero checks but would abort or
    // mis-size the server: the handshake must reject them.
    auto reject = [](auto mutate) {
        net::MemoryDuplex duplex;
        Hello h;
        h.params = WireParams::of(ot::tinyTestParams());
        mutate(h.params);
        sendHello(duplex.a(), h);
        Hello got;
        EXPECT_EQ(recvHello(duplex.b(), &got), Status::BadParams);
    };
    // usableOts() would underflow: n smaller than the base reserve.
    reject([](WireParams &w) { w.n = w.k + 8; });
    // Multi-TB workspace request.
    reject([](WireParams &w) { w.n = uint64_t(1) << 40; });
    // k >= n breaks the LPN shape.
    reject([](WireParams &w) { w.k = w.n; });
    // Unknown PRG id would abort engine construction.
    reject([](WireParams &w) { w.prg = 200; });
    // Degenerate tree shape.
    reject([](WireParams &w) { w.arity = 1; });
}

// ---------------------------------------------------------------------------
// SocketChannel
// ---------------------------------------------------------------------------

TEST(SocketChannelTest, FramedBytesEverySize)
{
    auto [a, b] = net::socketChannelPair();
    const size_t sizes[] = {1, 3, 16, 17, 4095, 4096, 100000,
                            net::SocketChannel::kFlushThreshold + 123};

    std::thread peer([&] {
        Rng rng(7);
        std::vector<uint8_t> buf;
        for (size_t sz : sizes) {
            buf.resize(sz);
            b->recvBytes(buf.data(), sz);
            // Echo transformed so the main side can verify both
            // directions moved real data.
            for (auto &x : buf)
                x ^= 0x5a;
            b->sendBytes(buf.data(), sz);
        }
    });

    Rng rng(7);
    std::vector<uint8_t> out, echo;
    uint64_t total = 0;
    for (size_t sz : sizes) {
        out.resize(sz);
        for (auto &x : out)
            x = uint8_t(rng.nextUint64());
        a->sendBytes(out.data(), sz);
        echo.resize(sz);
        a->recvBytes(echo.data(), sz);
        for (size_t i = 0; i < sz; ++i)
            ASSERT_EQ(echo[i], uint8_t(out[i] ^ 0x5a)) << "size " << sz;
        total += sz;
    }
    peer.join();

    EXPECT_EQ(a->bytesSent(), total);
    EXPECT_EQ(a->bytesReceived(), total);
    EXPECT_EQ(b->bytesSent(), total);
    // One send+recv turnaround per size on each endpoint.
    EXPECT_GE(a->turns(), 2 * (sizeof(sizes) / sizeof(sizes[0])) - 1);
}

TEST(SocketChannelTest, TypedHelpersOverRealSocket)
{
    auto [a, b] = net::socketChannelPair();
    std::thread peer([&] {
        Block blk = b->recvBlock();
        BitVec bits = b->recvBits();
        b->sendUint64(blk.lo ^ bits.size());
        // Final send before going idle: the turnaround flush cannot
        // trigger, so push the frame explicitly.
        b->flush();
    });
    Rng rng(9);
    Block blk = rng.nextBlock();
    BitVec bits = rng.nextBits(777);
    a->sendBlock(blk);
    a->sendBits(bits);
    EXPECT_EQ(a->recvUint64(), blk.lo ^ 777u);
    peer.join();
}

TEST(SocketChannelTest, LoopbackTcpConnect)
{
    int listener = net::tcpListen(0);
    const uint16_t port = net::tcpListenPort(listener);
    std::thread server([&] {
        int fd = net::acceptOn(listener);
        ASSERT_GE(fd, 0);
        net::SocketChannel ch(fd);
        EXPECT_EQ(ch.recvUint64(), 123u);
        ch.sendUint64(456);
        ch.flush();
    });
    auto ch = net::tcpConnect("127.0.0.1", port);
    ch->sendUint64(123);
    EXPECT_EQ(ch->recvUint64(), 456u);
    server.join();
    ::close(listener);
}

// ---------------------------------------------------------------------------
// Multi-session bit-identity vs direct engines
// ---------------------------------------------------------------------------

/**
 * The ground truth a service session must reproduce: the same seeds
 * through a direct in-process engine pair.
 */
ot::FerretPairRun
runDirect(const FerretParams &p, uint64_t setup_seed, int iters)
{
    return ot::FerretPair{.params = p,
                          .seed = setup_seed,
                          .iterations = iters,
                          .seeding = ot::Seeding::Service}
        .run();
}

/** Poll @p pred (a few seconds max) — server-side effects are async. */
template <typename Pred>
void
waitUntil(Pred pred)
{
    for (int spin = 0; spin < 5000 && !pred(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/**
 * Close is fire-and-forget on the client, so a joined client can race
 * the server's session epilogue; wait for the counter to settle.
 */
void
waitForSessions(CotServer &server, uint64_t expect)
{
    for (int spin = 0; spin < 2000; ++spin) {
        if (server.sessionsServed() >= expect &&
            server.activeSessions() == 0)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Server-side output recorder keyed by session id. */
struct ServerRecorder
{
    std::mutex m;
    std::map<uint64_t, std::vector<Block>> qBySession;
    std::map<uint64_t, Block> deltaBySession;
    std::map<uint64_t, BitVec> choiceBySession;
    std::map<uint64_t, std::vector<Block>> tBySession;

    void
    attach(CotServer &server)
    {
        server.setSenderSink([this](const CotServer::SenderBatch &b) {
            std::lock_guard<std::mutex> lock(m);
            auto &q = qBySession[b.sessionId];
            q.insert(q.end(), b.q, b.q + b.count);
            deltaBySession[b.sessionId] = b.delta;
        });
        server.setReceiverSink(
            [this](const CotServer::ReceiverBatch &b) {
                std::lock_guard<std::mutex> lock(m);
                auto &t = tBySession[b.sessionId];
                t.insert(t.end(), b.t, b.t + b.count);
                choiceBySession[b.sessionId].appendRange(*b.choice, 0,
                                                         b.count);
            });
    }
};

TEST(CotServiceTest, EightConcurrentSessionsBitIdenticalToDirect)
{
    constexpr int kSessions = 8;
    constexpr int kIters = 3;

    ServerRecorder rec; // before the server: sinks must outlive sessions
    CotServer server(
        CotServer::Config{.engineThreads = 1, .maxSessions = kSessions});
    rec.attach(server);
    const uint16_t port = server.listenTcp(0);

    int set_index = 0;
    for (const FerretParams &p :
         {ot::tinyTestParams(), ot::tinyAlignedParams()}) {
        const uint64_t seed_base = 5000 + 100 * set_index++;

        // Ground truth per session seed.
        std::vector<ot::FerretPairRun> refs;
        for (int i = 0; i < kSessions; ++i)
            refs.push_back(runDirect(p, seed_base + i, kIters));

        // The same seeds through the service, all sessions concurrent.
        std::vector<BitVec> got_choice(kSessions);
        std::vector<std::vector<Block>> got_t(kSessions);
        std::vector<uint64_t> sids(kSessions);
        std::vector<std::thread> clients;
        for (int i = 0; i < kSessions; ++i)
            clients.emplace_back([&, i] {
                CotClient::Options opt;
                opt.role = Role::Receiver;
                opt.setupSeed = seed_base + i;
                auto client = CotClient::connectTcp("127.0.0.1", port,
                                                    p, opt);
                sids[i] = client->sessionId();
                const size_t usable = client->usableOts();
                got_t[i].resize(usable * kIters);
                BitVec c;
                for (int it = 0; it < kIters; ++it) {
                    client->extendRecv(c,
                                       got_t[i].data() + it * usable);
                    got_choice[i].appendRange(c, 0, c.size());
                }
                client->close();
            });
        for (auto &th : clients)
            th.join();

        for (int i = 0; i < kSessions; ++i) {
            ASSERT_EQ(got_choice[i], refs[i].choice)
                << p.name << " session " << i;
            ASSERT_EQ(got_t[i], refs[i].t) << p.name << " session " << i;
            // The final iteration's sink runs on the session thread
            // after the client already has its bytes — wait for it.
            waitUntil([&] {
                std::lock_guard<std::mutex> lock(rec.m);
                return rec.qBySession[sids[i]].size() >=
                       refs[i].q.size();
            });
            std::lock_guard<std::mutex> lock(rec.m);
            ASSERT_EQ(rec.qBySession[sids[i]], refs[i].q)
                << p.name << " session " << i;
            ASSERT_EQ(rec.deltaBySession[sids[i]], refs[i].delta);
        }
    }
    // 8 concurrent sessions per shape -> at most 8 sender engines per
    // shape ever constructed (2 shapes).
    waitForSessions(server, 2u * kSessions);
    EXPECT_LE(server.pool().sendersCreated(), 2u * kSessions);
    EXPECT_EQ(server.sessionsServed(), 2u * kSessions);
    server.stop();
}

TEST(CotServiceTest, SenderRoleClientMatchesDirect)
{
    constexpr int kIters = 2;
    const FerretParams p = ot::tinyTestParams();
    const uint64_t seed = 91001;

    ot::FerretPairRun ref = runDirect(p, seed, kIters);

    ServerRecorder rec; // before the server: sinks must outlive sessions
    CotServer server;
    rec.attach(server);
    const uint16_t port = server.listenTcp(0);

    CotClient::Options opt;
    opt.role = Role::Sender;
    opt.setupSeed = seed;
    auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
    EXPECT_EQ(client->delta(), ref.delta);

    const size_t usable = client->usableOts();
    std::vector<Block> q(usable * kIters);
    for (int it = 0; it < kIters; ++it)
        client->extendSend(q.data() + it * usable);
    const uint64_t sid = client->sessionId();
    client->close();
    server.stop();

    EXPECT_EQ(q, ref.q);
    std::lock_guard<std::mutex> lock(rec.m);
    EXPECT_EQ(rec.tBySession[sid], ref.t);
    EXPECT_EQ(rec.choiceBySession[sid], ref.choice);
}

TEST(CotServiceTest, EnginesReusedAcrossSessionWaves)
{
    constexpr int kWaveSessions = 4;
    const FerretParams p = ot::tinyTestParams();

    CotServer server(CotServer::Config{.engineThreads = 1,
                                       .maxSessions = kWaveSessions});
    const uint16_t port = server.listenTcp(0);

    // Every session of a wave stays open until all of them extended,
    // so each wave really holds kWaveSessions engines at once: wave 1
    // must build exactly that many, and later waves none.
    auto run_wave = [&](uint64_t seed_base) {
        std::latch all_extended(kWaveSessions);
        std::vector<std::thread> clients;
        for (int i = 0; i < kWaveSessions; ++i)
            clients.emplace_back([&, i] {
                CotClient::Options opt;
                opt.setupSeed = seed_base + i;
                auto client = CotClient::connectTcp("127.0.0.1", port,
                                                    p, opt);
                BitVec c;
                std::vector<Block> t(client->usableOts());
                client->extendRecv(c, t.data());
                all_extended.arrive_and_wait();
                client->close();
            });
        for (auto &th : clients)
            th.join();
    };

    run_wave(7000);
    waitForSessions(server, kWaveSessions);
    EXPECT_EQ(server.pool().sendersCreated(), uint64_t(kWaveSessions));

    run_wave(8000);
    waitForSessions(server, 2u * kWaveSessions);
    run_wave(9000);
    waitForSessions(server, 3u * kWaveSessions);
    EXPECT_EQ(server.pool().sendersCreated(), uint64_t(kWaveSessions))
        << "later waves must reuse pooled engines, not construct";
    EXPECT_EQ(server.sessionsServed(), 3u * kWaveSessions);
    server.stop();
}

TEST(CotServiceTest, UnixDomainSessionWorks)
{
    const FerretParams p = ot::tinyTestParams();
    // Per-process path: concurrent test processes must not collide.
    const std::string path =
        "/tmp/ironman_svc_test." + std::to_string(::getpid()) + ".sock";

    ServerRecorder rec; // before the server: sinks must outlive sessions
    CotServer server;
    rec.attach(server);
    server.listenUnix(path);

    ot::FerretPairRun ref = runDirect(p, 4242, 1);
    CotClient::Options opt;
    opt.setupSeed = 4242;
    auto client = CotClient::connectUnix(path, p, opt);
    BitVec c;
    std::vector<Block> t(client->usableOts());
    client->extendRecv(c, t.data());
    client->close();
    server.stop();

    EXPECT_EQ(c, ref.choice);
    EXPECT_EQ(t, ref.t);
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << "socket file left behind";
}

// ---------------------------------------------------------------------------
// Reservoir + dual-direction supply
// ---------------------------------------------------------------------------

TEST(ReservoirTest, BackgroundRefillYieldsCorrelatedStream)
{
    const FerretParams p = ot::tinyTestParams();
    const uint64_t seed = 30303;

    ServerRecorder rec; // before the server: sinks must outlive sessions
    CotServer server;
    rec.attach(server);
    const uint16_t port = server.listenTcp(0);

    CotClient::Options opt;
    opt.setupSeed = seed;
    auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
    const uint64_t sid = client->sessionId();

    Block delta;
    dealSessionBase(p, seed, nullptr, nullptr, &delta);

    {
        Reservoir res(*client);
        // Odd-sized takes crossing batch boundaries: > 2 extensions.
        // A take past the stock's ceiling (maxBatches + 1 extensions)
        // leaves less than one extension behind, so its consumed
        // prefix dominates the bank: each such take compacts, and the
        // pairing checks run across both compactions.
        const size_t usable = p.usableOts();
        const size_t takes[] = {17,         usable - 5,
                                usable / 2 + 3, 1234,
                                3 * usable + 5, 77,
                                4 * usable + 1, 4099};
        BitVec bits;
        std::vector<Block> t;
        size_t consumed = 0;
        for (size_t n : takes) {
            res.takeRecv(n, &bits, &t);
            ASSERT_EQ(bits.size(), n);
            ASSERT_EQ(t.size(), n);
            // Pair with the server's recorded half at this offset
            // (the sink runs on the session thread — after the bytes
            // that satisfied our take were already on the wire).
            waitUntil([&] {
                std::lock_guard<std::mutex> lock(rec.m);
                return rec.qBySession[sid].size() >= consumed + n;
            });
            std::lock_guard<std::mutex> lock(rec.m);
            const auto &q = rec.qBySession[sid];
            ASSERT_GE(q.size(), consumed + n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(t[i],
                          q[consumed + i] ^
                              scalarMul(bits.get(i), delta))
                    << "offset " << consumed + i;
            consumed += n;
        }
        EXPECT_GE(res.refills(), 2u) << "takes crossed >= 2 batches";
        EXPECT_EQ(res.taken(), consumed);
    }
    client->close();
    server.stop();
}

TEST(ReservoirTest, ConcurrentTakersBothComplete)
{
    // Two takers race one reservoir, one asking for more than the
    // refill high-water mark: the demand bookkeeping must keep the
    // refiller producing until BOTH are satisfied (no stranded taker).
    const FerretParams p = ot::tinyTestParams();
    CotServer server;
    const uint16_t port = server.listenTcp(0);
    CotClient::Options opt;
    opt.role = Role::Sender;
    opt.setupSeed = 60606;
    auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);

    const size_t usable = p.usableOts();
    {
        Reservoir res(*client);
        std::vector<Block> big, small;
        std::thread taker([&] { res.takeSend(3 * usable + 7, &big); });
        res.takeSend(usable / 2, &small);
        taker.join();
        EXPECT_EQ(big.size(), 3 * usable + 7);
        EXPECT_EQ(small.size(), usable / 2);
        EXPECT_EQ(res.taken(), 3 * usable + 7 + usable / 2);
    }
    client->close();
    server.stop();
}

// ---------------------------------------------------------------------------
// Handshake policy: params allowlist + per-client quotas
// ---------------------------------------------------------------------------

TEST(CotServicePolicyTest, AllowlistRejectsUnlistedParams)
{
    CotServer::Config cfg;
    cfg.paramsAllowlist = {ot::tinyAlignedParams()};
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);

    // Structurally valid but unlisted: clean wire-level reject.
    CotClient::Options opt;
    opt.setupSeed = 1111;
    try {
        auto client = CotClient::connectTcp("127.0.0.1", port,
                                            ot::tinyTestParams(), opt);
        FAIL() << "unlisted params must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("params not allowed"),
                  std::string::npos)
            << e.what();
    }

    // The listed shape still serves.
    auto client = CotClient::connectTcp("127.0.0.1", port,
                                        ot::tinyAlignedParams(), opt);
    BitVec c;
    std::vector<Block> t(client->usableOts());
    client->extendRecv(c, t.data());
    client->close();
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 1u);
    EXPECT_EQ(server.sessionsRejected(), 1u);
}

TEST(CotServicePolicyTest, SessionQuotaRejectsAtHandshake)
{
    CotServer::Config cfg;
    cfg.maxSessionsPerClient = 2;
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);
    const FerretParams p = ot::tinyTestParams();

    for (uint64_t i = 0; i < 2; ++i) {
        CotClient::Options opt;
        opt.setupSeed = 2200 + i;
        auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
        client->close();
    }
    waitForSessions(server, 2);

    CotClient::Options opt;
    opt.setupSeed = 2299;
    try {
        auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
        FAIL() << "third session from one address must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("session quota"),
                  std::string::npos)
            << e.what();
    }
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 2u);
    EXPECT_EQ(server.sessionsRejected(), 1u);
}

TEST(CotServicePolicyTest, ByteQuotaRejectsAtHandshake)
{
    CotServer::Config cfg;
    cfg.maxBytesPerClient = 1; // any served session exhausts it
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);
    const FerretParams p = ot::tinyTestParams();

    // First session admitted (no bytes on the tally yet) and served.
    {
        CotClient::Options opt;
        opt.setupSeed = 3300;
        auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
        BitVec c;
        std::vector<Block> t(client->usableOts());
        client->extendRecv(c, t.data());
        client->close();
    }
    waitForSessions(server, 1);
    EXPECT_GT(server.bytesServedTo("127.0.0.1"), 1u);

    // Tally now exceeds the quota: the next hello is rejected.
    CotClient::Options opt;
    opt.setupSeed = 3301;
    try {
        auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
        FAIL() << "byte quota must reject the second session";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("byte quota"),
                  std::string::npos)
            << e.what();
    }
    server.stop();
    EXPECT_EQ(server.sessionsRejected(), 1u);
}

TEST(ReservoirTest, DualDirectionSupplyPairsBothWays)
{
    const FerretParams p = ot::tinyTestParams();
    const uint64_t send_seed = 40404, recv_seed = 50505;

    ServerRecorder rec; // before the server: sinks must outlive sessions
    CotServer server;
    rec.attach(server);
    const uint16_t port = server.listenTcp(0);

    CotClient::Options send_opt;
    send_opt.role = Role::Sender;
    send_opt.setupSeed = send_seed;
    auto send_client =
        CotClient::connectTcp("127.0.0.1", port, p, send_opt);
    const uint64_t send_sid = send_client->sessionId();

    CotClient::Options recv_opt;
    recv_opt.setupSeed = recv_seed;
    auto recv_client =
        CotClient::connectTcp("127.0.0.1", port, p, recv_opt);
    const uint64_t recv_sid = recv_client->sessionId();

    Block recv_delta; // the server's delta in the recv-role session
    dealSessionBase(p, recv_seed, nullptr, nullptr, &recv_delta);

    {
        Reservoir send_res(*send_client);
        Reservoir recv_res(*recv_client);
        ReservoirCotSupply supply(send_res, recv_res,
                                  send_client->delta());

        const size_t n = 4096;
        std::vector<Block> q, t;
        BitVec bits;
        supply.takeSend(n, &q);
        supply.takeRecv(n, &bits, &t);
        ASSERT_EQ(q.size(), n);
        ASSERT_EQ(t.size(), n);
        ASSERT_EQ(bits.size(), n);

        waitUntil([&] {
            std::lock_guard<std::mutex> lock(rec.m);
            return rec.tBySession[send_sid].size() >= n &&
                   rec.qBySession[recv_sid].size() >= n;
        });
        std::lock_guard<std::mutex> lock(rec.m);
        // Send direction: our q + delta vs the server's receiver half.
        const auto &srv_t = rec.tBySession[send_sid];
        const auto &srv_c = rec.choiceBySession[send_sid];
        ASSERT_GE(srv_t.size(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(srv_t[i],
                      q[i] ^ scalarMul(srv_c.get(i),
                                           supply.sendDelta()));
        // Recv direction: our (bits, t) vs the server's sender half.
        const auto &srv_q = rec.qBySession[recv_sid];
        ASSERT_GE(srv_q.size(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(t[i],
                      srv_q[i] ^ scalarMul(bits.get(i), recv_delta));
    }
    send_client->close();
    recv_client->close();
    server.stop();
}

// ---------------------------------------------------------------------------
// Broken-wire fuzz: the extension phase vs a malformed peer
// ---------------------------------------------------------------------------

/**
 * A peer that handshakes CORRECTLY and then speaks garbage — bogus
 * ops, valid frames full of noise, truncated extension traffic,
 * abrupt disconnects. The server must unwind each session with a
 * typed error (never a crash, hang, or sanitizer finding) and keep
 * serving honest clients afterwards.
 */
TEST(CotServiceFuzzTest, ExtensionPhaseSurvivesMalformedPeers)
{
    const FerretParams p = ot::tinyTestParams();
    CotServer::Config cfg;
    cfg.sessionRecvTimeoutMs = 500; // a truncating peer must not pin
    CotServer server(cfg);          // a session thread forever
    const uint16_t port = server.listenTcp(0);

    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        Rng rng(0xf022 * seed);
        try {
            auto ch = net::tcpConnect("127.0.0.1", port);
            Hello h;
            h.role = Role::Receiver;
            h.setupSeed = 0xbad0 + seed;
            h.params = WireParams::of(p);
            sendHello(*ch, h);
            ch->flush();
            const Accept a = recvAccept(*ch);
            ASSERT_EQ(a.status, Status::Ok);

            switch (seed % 4) {
              case 0:
                // Vanish right after the handshake.
                break;
              case 1: {
                // A bogus op byte.
                uint8_t op = uint8_t(200 + rng.nextBelow(50));
                ch->sendBytes(&op, 1);
                ch->flush();
                break;
              }
              case 2: {
                // A real Extend, then noise instead of the protocol.
                sendOp(*ch, Op::Extend);
                const size_t words = 1 + rng.nextBelow(200);
                for (size_t i = 0; i < words; ++i)
                    ch->sendUint64(rng.nextUint64());
                ch->flush();
                break;
              }
              default:
                // A real Extend, then silence: the peer truncates the
                // exchange and disconnects mid-protocol.
                sendOp(*ch, Op::Extend);
                ch->flush();
                break;
            }
            // ch destructs here: abrupt close, no polite Op::Close.
        } catch (const net::WireError &) {
            // The server may slam the door first; also typed.
        }
    }

    // Every fuzzed session unwinds...
    waitUntil([&] { return server.activeSessions() == 0; });
    EXPECT_EQ(server.activeSessions(), 0u);

    // ...and an honest session still gets bit-exact service.
    const uint64_t seed = 0x600d;
    ot::FerretPairRun ref = runDirect(p, seed, 1);
    CotClient::Options opt;
    opt.setupSeed = seed;
    auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
    BitVec c;
    std::vector<Block> t(client->usableOts());
    client->extendRecv(c, t.data());
    for (size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(t[i], ref.t[i]);
    for (size_t i = 0; i < c.size(); ++i)
        ASSERT_EQ(c.get(i), ref.choice.get(i));
    client->close();
    server.stop();
}

// ---------------------------------------------------------------------------
// Quota adversary: a flooding client cannot degrade honest service
// ---------------------------------------------------------------------------

TEST(CotServicePolicyTest, QuotaAdversaryCannotStarveHonestClient)
{
    const FerretParams p = ot::tinyTestParams();
    CotServer::Config cfg;
    cfg.maxSessionsPerClient = 2;
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);

    // Honest client from 127.0.0.1, session open across the flood.
    const uint64_t seed = 0x40ae57;
    constexpr int kIters = 4; // one before, two during, one after
    ot::FerretPairRun ref = runDirect(p, seed, kIters);
    CotClient::Options opt;
    opt.setupSeed = seed;
    auto honest = CotClient::connectTcp("127.0.0.1", port, p, opt);
    const size_t usable = p.usableOts();
    BitVec c;
    std::vector<Block> t(usable);
    BitVec got_c;
    std::vector<Block> got_t;
    auto extendOnce = [&] {
        honest->extendRecv(c, t.data());
        got_c.appendRange(c, 0, c.size());
        got_t.insert(got_t.end(), t.begin(), t.end());
    };
    extendOnce();

    // The adversary floods from its own address (loopback source
    // bind), burning its session quota...
    for (uint64_t i = 0; i < 2; ++i) {
        CotClient::Options aopt;
        aopt.setupSeed = 0xadd0 + i;
        CotClient adv(net::tcpConnect("127.0.0.1", port, "127.0.0.2"),
                      p, aopt);
        adv.close();
    }
    // ...then every further connect gets a clean typed quota reject —
    // while the honest session keeps extending in between.
    for (uint64_t i = 0; i < 4; ++i) {
        try {
            CotClient::Options aopt;
            aopt.setupSeed = 0xadd8 + i;
            CotClient adv(
                net::tcpConnect("127.0.0.1", port, "127.0.0.2"), p,
                aopt);
            FAIL() << "flood connect " << i << " must be rejected";
        } catch (const net::WireError &e) {
            EXPECT_NE(std::string(e.what()).find("session quota"),
                      std::string::npos)
                << e.what();
        }
        if (i % 2 == 0)
            extendOnce();
    }
    extendOnce();

    // The adversary's bucket is full; the honest client's is not, and
    // its correlations are bit-identical to the direct reference.
    ASSERT_EQ(got_t.size(), usable * kIters);
    for (size_t i = 0; i < got_t.size(); ++i)
        ASSERT_EQ(got_t[i], ref.t[i]);
    for (size_t i = 0; i < got_c.size(); ++i)
        ASSERT_EQ(got_c.get(i), ref.choice.get(i));
    honest->close();
    server.stop();
    EXPECT_EQ(server.sessionsRejected(), 4u);
}

// ---------------------------------------------------------------------------
// Unix-domain quota identity: SO_PEERCRED, not a shared bucket
// ---------------------------------------------------------------------------

TEST(CotServicePolicyTest, UnixPeerAddressIsKernelAssertedUid)
{
    // The accepted end of a Unix-domain connection must key quotas by
    // the kernel-asserted peer uid — not a single "unix" bucket every
    // local process could drain or spoof into.
    const std::string path = "/tmp/ironman_peercred_test." +
                             std::to_string(::getpid()) + ".sock";
    int listener = net::unixListen(path);
    std::thread client([&] {
        auto ch = net::unixConnect(path);
        ch->sendUint64(1);
        ch->flush();
        EXPECT_EQ(ch->recvUint64(), 2u);
    });
    int fd = net::acceptOn(listener);
    ASSERT_GE(fd, 0);
    {
        net::SocketChannel ch(fd);
        EXPECT_EQ(ch.peerAddress(),
                  "unix:uid:" + std::to_string(::getuid()));
        EXPECT_EQ(ch.recvUint64(), 1u);
        ch.sendUint64(2);
        ch.flush();
    }
    client.join();
    ::close(listener);
    ::unlink(path.c_str());
}

} // namespace
} // namespace ironman::svc
