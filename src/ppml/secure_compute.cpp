#include "ppml/secure_compute.h"

#include <bit>

#include "common/logging.h"
#include "common/trace.h"
#include "ot/base_cot.h"
#include "ot/chosen_ot.h"
#include "ot/one_of_n.h"

namespace ironman::ppml {

SecureCompute::SecureCompute(net::Channel &channel, int party_id,
                             CotSupply &cot_supply, unsigned bitwidth)
    : ch(channel), party(party_id), supply(cot_supply),
      width(bitwidth), localRng(0xfeed1234 + party_id)
{
    IRONMAN_CHECK(party == 0 || party == 1);
    IRONMAN_CHECK(width >= 2 && width <= 64);
}

void
SecureCompute::takeSend(size_t n)
{
    supply.takeSend(n, &sendCots);
    consumed += n;
}

void
SecureCompute::takeRecv(size_t n)
{
    supply.takeRecv(n, &recvBits, &recvCots);
    consumed += n;
}

void
SecureCompute::otSendBatch(const std::vector<Block> &m0,
                           const std::vector<Block> &m1,
                           unsigned wire_width)
{
    const size_t n = m0.size();
    trace::Span span("ot_send", "crhf", 0, n);
    uint64_t tw = tweak;
    tweak += n;
    takeSend(n);
    ot::chosenOtSendPacked(ch, crhf, m0.data(), m1.data(), n, wire_width,
                           supply.sendDelta(), sendCots.data(), tw,
                           otScratch);
}

std::vector<Block>
SecureCompute::otRecvBatch(const BitVec &choices, unsigned wire_width)
{
    const size_t n = choices.size();
    trace::Span span("ot_recv", "crhf", 0, n);
    uint64_t tw = tweak;
    tweak += n;
    std::vector<Block> out(n);
    takeRecv(n);
    ot::chosenOtRecvPacked(ch, crhf, choices, recvBits, 0, recvCots.data(),
                           n, wire_width, out.data(), tw, otScratch);
    return out;
}

BitVec
SecureCompute::xorShares(const BitVec &a, const BitVec &b)
{
    BitVec out = a;
    out ^= b;
    return out;
}

BitVec
SecureCompute::andShares(const BitVec &a, const BitVec &b)
{
    IRONMAN_CHECK(a.size() == b.size());
    const size_t n = a.size();
    ++rounds;
    trace::Span span("and_shares", "gmw", uint32_t(rounds), n);

    // Fresh masks for the cross terms.
    Rng mask_rng(0x5eed0000 + party + 31 * tweak);
    BitVec r(n);
    for (size_t i = 0; i < n; ++i)
        r.set(i, mask_rng.nextBit());

    // Messages for the direction where we are the sender:
    // m_c = r_i ^ (a_i & c)  ->  receiver with choice b' learns
    // r_i ^ a_i*b'.
    std::vector<Block> m0(n), m1(n);
    for (size_t i = 0; i < n; ++i) {
        m0[i] = Block::fromUint64(r.get(i));
        m1[i] = Block::fromUint64(r.get(i) ^ a.get(i));
    }

    // AND-gate messages are single bits on the wire.
    std::vector<Block> got;
    if (party == 0) {
        otSendBatch(m0, m1, 1);
        got = otRecvBatch(b, 1);
    } else {
        got = otRecvBatch(b, 1);
        otSendBatch(m0, m1, 1);
    }

    // z_p = a_p*b_p ^ r_p ^ (r_{1-p} ^ a_{1-p}*b_p).
    BitVec z(n);
    for (size_t i = 0; i < n; ++i) {
        bool cross_in = got[i].lo & 1;
        z.set(i, (a.get(i) & b.get(i)) ^ r.get(i) ^ cross_in);
    }
    return z;
}

BitVec
SecureCompute::drelu(const std::vector<uint64_t> &shares)
{
    const size_t n = shares.size();
    const unsigned m = width - 1; // carry positions below the sign bit

    // Level 0, one batched AND round: G_i = g_i = a_i & b_i for every
    // position and element (position-major lanes: lane i*n+j is
    // position i of element j). P_i = a_i ^ b_i is local — with the
    // opposite operand zero-shared it is each party's own bit.
    BitVec lhs(size_t(m) * n), rhs(size_t(m) * n);
    BitVec &own = party == 0 ? lhs : rhs;
    BitVec P(size_t(m) * n);
    for (unsigned i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j) {
            const bool bit = (shares[j] >> i) & 1;
            own.set(size_t(i) * n + j, bit);
            P.set(size_t(i) * n + j, bit);
        }
    BitVec G = andShares(lhs, rhs);

    // Kogge–Stone combine: after the level at distance d, (G_i, P_i)
    // spans the min(2d, i+1) trailing positions ending at i. Each
    // level is ONE batched AND over both updates —
    //   G_i' = G_i ^ (P_i & G_{i-d}),  P_i' = P_i & P_{i-d}
    // for all i in [d, m) — except the last level (2d >= m), where
    // only the final carry G_{m-1} is still needed.
    for (unsigned d = 1; d < m; d <<= 1) {
        const bool last = 2 * d >= m;
        const unsigned lo = last ? m - 1 : d;
        const size_t span = size_t(m - lo) * n;
        BitVec a(last ? span : 2 * span), b(last ? span : 2 * span);
        size_t k = 0;
        for (unsigned i = lo; i < m; ++i)
            for (size_t j = 0; j < n; ++j, ++k) {
                a.set(k, P.get(size_t(i) * n + j));
                b.set(k, G.get(size_t(i - d) * n + j));
            }
        if (!last)
            for (unsigned i = lo; i < m; ++i)
                for (size_t j = 0; j < n; ++j, ++k) {
                    a.set(k, P.get(size_t(i) * n + j));
                    b.set(k, P.get(size_t(i - d) * n + j));
                }
        const BitVec z = andShares(a, b);
        k = 0;
        for (unsigned i = lo; i < m; ++i)
            for (size_t j = 0; j < n; ++j, ++k)
                G.set(size_t(i) * n + j,
                      G.get(size_t(i) * n + j) ^ z.get(k));
        if (!last)
            for (unsigned i = lo; i < m; ++i)
                for (size_t j = 0; j < n; ++j, ++k)
                    P.set(size_t(i) * n + j, z.get(k));
    }

    // Carry into the sign bit = the full-span G at position m-1;
    // msb(x) = a_{w-1} ^ b_{w-1} ^ carry, DReLU = NOT msb (party 0
    // flips its share).
    BitVec out(n);
    for (size_t j = 0; j < n; ++j)
        out.set(j, G.get(size_t(m - 1) * n + j) ^ ((shares[j] >> m) & 1) ^
                       (party == 0));
    return out;
}

std::vector<uint64_t>
SecureCompute::mux(const BitVec &b_shares,
                   const std::vector<uint64_t> &x_shares)
{
    const size_t n = x_shares.size();
    IRONMAN_CHECK(b_shares.size() == n);
    ++rounds;

    // Masks come off a dedicated per-call counter, NOT the tweak: the
    // tweak advances with the comparison circuit's gate count, and
    // tying the masks to it would make relu output shares — and
    // through the share-local dense truncation, the reconstructed
    // outputs — depend on the circuit. See the mux() doc in the header.
    Rng mask_rng(0xabcd0000 + party + 31 * muxSeq);
    muxSeq += n;
    std::vector<uint64_t> r(n);
    for (auto &v : r)
        v = maskValue(mask_rng.nextUint64());

    // m_c = (b_p ^ c) * x_p - r_p: the receiver with choice b_{1-p}
    // learns b*x_p - r_p (b = b_p ^ b_{1-p}).
    std::vector<Block> m0(n), m1(n);
    for (size_t i = 0; i < n; ++i) {
        uint64_t on = maskValue(x_shares[i] - r[i]);
        uint64_t off = maskValue(0 - r[i]);
        bool bp = b_shares.get(i);
        m0[i] = Block::fromUint64(bp ? on : off);
        m1[i] = Block::fromUint64(bp ? off : on);
    }

    // MUX arms are width-masked values: width-bit lanes on the wire.
    std::vector<Block> got;
    if (party == 0) {
        otSendBatch(m0, m1, width);
        got = otRecvBatch(b_shares, width);
    } else {
        got = otRecvBatch(b_shares, width);
        otSendBatch(m0, m1, width);
    }

    std::vector<uint64_t> y(n);
    for (size_t i = 0; i < n; ++i)
        y[i] = maskValue(r[i] + got[i].lo);
    return y;
}

std::vector<uint64_t>
SecureCompute::relu(const std::vector<uint64_t> &shares)
{
    BitVec positive = drelu(shares);
    return mux(positive, shares);
}

std::vector<uint64_t>
SecureCompute::lutEval(const std::vector<uint64_t> &x_shares,
                       const std::vector<uint64_t> &table)
{
    const size_t n_msgs = table.size();
    const size_t batch = x_shares.size();
    IRONMAN_CHECK(n_msgs >= 2 && std::has_single_bit(n_msgs));
    const unsigned bits = std::countr_zero(n_msgs);
    const size_t cots = batch * bits;
    ++rounds;

    if (party == 0) {
        // Build the rotated, masked tables: message i of instance e is
        // table[(x0_e + i) mod N] - r_e.
        std::vector<uint64_t> r(batch);
        std::vector<Block> msgs(batch * n_msgs);
        for (size_t e = 0; e < batch; ++e) {
            IRONMAN_CHECK(x_shares[e] < n_msgs,
                          "index shares must be reduced mod N");
            r[e] = maskValue(localRng.nextUint64());
            for (size_t i = 0; i < n_msgs; ++i) {
                uint64_t entry =
                    table[(x_shares[e] + i) & (n_msgs - 1)];
                msgs[e * n_msgs + i] =
                    Block::fromUint64(maskValue(entry - r[e]));
            }
        }
        takeSend(cots);
        ot::oneOfNOtSend(ch, crhf, msgs.data(), n_msgs, batch,
                         supply.sendDelta(), sendCots.data(), localRng,
                         tweak);
        return r;
    }

    // Party 1: select with its own index share.
    std::vector<uint32_t> choices(batch);
    for (size_t e = 0; e < batch; ++e) {
        IRONMAN_CHECK(x_shares[e] < n_msgs,
                      "index shares must be reduced mod N");
        choices[e] = uint32_t(x_shares[e]);
    }
    takeRecv(cots);
    const std::vector<Block> got = ot::oneOfNOtRecv(
        ch, crhf, choices, n_msgs, recvBits, 0, recvCots.data(), tweak);

    std::vector<uint64_t> out(batch);
    for (size_t e = 0; e < batch; ++e)
        out[e] = maskValue(got[e].lo);
    return out;
}

std::vector<uint64_t>
SecureCompute::maxElementwise(const std::vector<uint64_t> &a,
                              const std::vector<uint64_t> &b)
{
    IRONMAN_CHECK(a.size() == b.size());
    // max(a, b) = b + relu(a - b).
    std::vector<uint64_t> diff(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        diff[i] = maskValue(a[i] - b[i]);
    std::vector<uint64_t> r = relu(diff);
    std::vector<uint64_t> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = maskValue(b[i] + r[i]);
    return out;
}

} // namespace ironman::ppml
