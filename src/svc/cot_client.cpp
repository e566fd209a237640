#include "svc/cot_client.h"

#include <stdexcept>

#include "common/logging.h"

namespace ironman::svc {

CotClient::CotClient(std::unique_ptr<net::SocketChannel> channel,
                     const ot::FerretParams &params, Options opt)
    : ch(std::move(channel)), p(params), opt_(opt),
      rng(opt.role == Role::Sender ? senderRngSeed(opt.setupSeed)
                                   : receiverRngSeed(opt.setupSeed))
{
    Hello h;
    h.role = opt_.role;
    h.setupSeed = opt_.setupSeed;
    h.params = WireParams::of(p);
    sendHello(*ch, h);
    const Accept a = recvAccept(*ch);
    if (a.status != Status::Ok)
        throw net::WireError(
            net::WireFault::Fatal,
            std::string("CotClient: server rejected hello: ") +
                statusName(a.status));
    sid = a.sessionId;

    if (opt_.role == Role::Sender) {
        ot::CotSenderBatch half;
        dealSessionBase(p, opt_.setupSeed, &half, nullptr, &delta_);
        sender = std::make_unique<ot::FerretCotSender>(
            *ch, p, delta_, std::move(half.q));
        sender->setThreads(opt_.threads);
    } else {
        ot::CotReceiverBatch half;
        dealSessionBase(p, opt_.setupSeed, nullptr, &half, nullptr);
        receiver = std::make_unique<ot::FerretCotReceiver>(
            *ch, p, std::move(half.choice), std::move(half.t));
        receiver->setThreads(opt_.threads);
    }
}

std::unique_ptr<CotClient>
CotClient::connectTcp(const std::string &host, uint16_t port,
                      const ot::FerretParams &params, Options opt)
{
    return std::make_unique<CotClient>(net::tcpConnect(host, port),
                                       params, opt);
}

std::unique_ptr<CotClient>
CotClient::connectTcpRetry(const std::string &host, uint16_t port,
                           const ot::FerretParams &params, Options opt,
                           const RetryPolicy &retry,
                           const RetryEventHook &hook)
{
    const unsigned attempts = retry.maxAttempts > 0 ? retry.maxAttempts
                                                    : 1u;
    for (unsigned attempt = 1;; ++attempt) {
        try {
            retry.sleepBefore(attempt);
            return connectTcp(host, port, params, opt);
        } catch (const net::WireError &e) {
            if (!e.retryable() || attempt >= attempts)
                throw;
            if (hook)
                hook(attempt, retry.backoffMs(attempt + 1), e.what());
        }
    }
}

std::unique_ptr<CotClient>
CotClient::connectUnix(const std::string &path,
                       const ot::FerretParams &params, Options opt)
{
    return std::make_unique<CotClient>(net::unixConnect(path), params,
                                       opt);
}

CotClient::~CotClient()
{
    try {
        close();
    } catch (...) {
        // Destructor teardown with a dead peer: nothing to do.
    }
}

void
CotClient::extendRecv(BitVec &choice, Block *t)
{
    IRONMAN_CHECK(receiver && !closed,
                  "extendRecv needs an open receiver-role session");
    sendOp(*ch, Op::Extend);
    receiver->extendInto(rng, choice, t);
    // extendInto may end on a send (the pipelined prefetch); the
    // server blocks on those bytes before its next opcode read.
    ch->flush();
    ++extensions;
}

void
CotClient::extendSend(Block *q)
{
    IRONMAN_CHECK(sender && !closed,
                  "extendSend needs an open sender-role session");
    sendOp(*ch, Op::Extend);
    sender->extendInto(rng, q);
    ch->flush();
    ++extensions;
}

const Block &
CotClient::delta() const
{
    IRONMAN_CHECK(sender, "delta() is sender-role only");
    return delta_;
}

void
CotClient::close()
{
    if (closed || !ch)
        return;
    closed = true;
    sendOp(*ch, Op::Close);
    ch->flush();
}

} // namespace ironman::svc
