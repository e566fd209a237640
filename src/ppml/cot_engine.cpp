#include "ppml/cot_engine.h"

#include "common/logging.h"
#include "ot/base_cot.h"

namespace ironman::ppml {

FerretCotEngine::FerretCotEngine(net::Channel &ch, int party,
                                 const ot::FerretParams &p,
                                 uint64_t setup_seed, int threads)
    : extendRng(setup_seed ^ 0x0e17e4d5u ^ uint64_t(party) << 32)
{
    IRONMAN_CHECK(party == 0 || party == 1);

    // Trusted-dealer setup: both parties replay the same tape and keep
    // their own halves. Direction A: party 0 sends; direction B: roles
    // swapped.
    Rng dealer(setup_seed);
    Block delta_a = dealer.nextBlock();
    auto [sa, ra] = ot::dealBaseCots(dealer, delta_a, p.reservedCots());
    Block delta_b = dealer.nextBlock();
    auto [sb, rb] = ot::dealBaseCots(dealer, delta_b, p.reservedCots());

    if (party == 0) {
        sendDelta_ = delta_a;
        sender = std::make_unique<ot::FerretCotSender>(
            ch, p, delta_a, std::move(sa.q));
        receiver = std::make_unique<ot::FerretCotReceiver>(
            ch, p, std::move(rb.choice), std::move(rb.t));
    } else {
        sendDelta_ = delta_b;
        sender = std::make_unique<ot::FerretCotSender>(
            ch, p, delta_b, std::move(sb.q));
        receiver = std::make_unique<ot::FerretCotReceiver>(
            ch, p, std::move(ra.choice), std::move(ra.t));
    }
    sender->setThreads(threads);
    receiver->setThreads(threads);
    stage.resize(p.usableOts());

    // Prime one extension per direction; direction A runs first on
    // both sides so the interleaved sessions line up.
    if (party == 0) {
        refillSend(1);
        refillRecv(1);
    } else {
        refillRecv(1);
        refillSend(1);
    }
}

void
FerretCotEngine::refillSend(size_t need)
{
    while (sendBank.size() < need) {
        sender->extendInto(extendRng, stage.data());
        sendBank.append(stage.data(), stage.size());
        ++extensions;
    }
}

void
FerretCotEngine::refillRecv(size_t need)
{
    while (recvBank.size() < need) {
        receiver->extendInto(extendRng, stageBits, stage.data());
        recvBank.append(stage.data(), stage.size(), &stageBits);
        ++extensions;
    }
}

void
FerretCotEngine::takeSend(size_t n, std::vector<Block> *q)
{
    refillSend(n);
    sendBank.take(n, q);
}

void
FerretCotEngine::takeRecv(size_t n, BitVec *bits, std::vector<Block> *t)
{
    refillRecv(n);
    recvBank.take(n, t, bits);
}

} // namespace ironman::ppml
