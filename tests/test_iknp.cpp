/**
 * @file
 * IKNP OT-extension tests: the COT correlation, fresh sessions, and
 * the linear-communication property the paper contrasts with
 * PCG-style OTE. The bit transpose IKNP rests on is covered by
 * test_bit_transpose.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "net/two_party.h"
#include "ot/iknp.h"

namespace ironman::ot {
namespace {

TEST(IknpTest, CorrelationHolds)
{
    const size_t n = 1 << 12;
    Rng rng(64);
    IknpSetup setup = dealIknpSetup(rng);
    BitVec choices = rng.nextBits(n);

    std::vector<Block> q(n), t(n);
    net::runTwoParty(
        [&](net::Channel &ch) {
            common::ThreadPool pool(1);
            IknpWorkspace ws;
            iknpExtendSenderInto(ch, setup, n, 0, pool, ws, q.data());
        },
        [&](net::Channel &ch) {
            common::ThreadPool pool(2);
            IknpWorkspace ws;
            iknpExtendReceiverInto(ch, setup, choices, 0, pool, ws,
                                   t.data());
        });

    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(t[i],
                  q[i] ^ scalarMul(choices.get(i), setup.delta))
            << "i=" << i;
}

TEST(IknpTest, SessionsProduceFreshCorrelations)
{
    const size_t n = 256;
    Rng rng(65);
    IknpSetup setup = dealIknpSetup(rng);
    BitVec choices = rng.nextBits(n);

    common::ThreadPool pool(1);
    IknpWorkspace sender_ws, recv_ws;
    auto run = [&](uint64_t session) {
        std::vector<Block> q(n), t(n);
        net::runTwoParty(
            [&](net::Channel &ch) {
                iknpExtendSenderInto(ch, setup, n, session, pool,
                                     sender_ws, q.data());
            },
            [&](net::Channel &ch) {
                common::ThreadPool rpool(1);
                iknpExtendReceiverInto(ch, setup, choices, session,
                                       rpool, recv_ws, t.data());
            });
        return q;
    };

    std::vector<Block> q0 = run(0);
    std::vector<Block> q1 = run(1);
    size_t same = 0;
    for (size_t i = 0; i < n; ++i)
        same += (q0[i] == q1[i]);
    EXPECT_EQ(same, 0u);
}

TEST(IknpTest, CommunicationIsLinearSixteenBytesPerCot)
{
    const size_t n = 1 << 13;
    Rng rng(66);
    IknpSetup setup = dealIknpSetup(rng);
    BitVec choices = rng.nextBits(n);

    std::vector<Block> q(n), t(n);
    auto wire = net::runTwoParty(
        [&](net::Channel &ch) {
            common::ThreadPool pool(1);
            IknpWorkspace ws;
            iknpExtendSenderInto(ch, setup, n, 0, pool, ws, q.data());
        },
        [&](net::Channel &ch) {
            common::ThreadPool pool(1);
            IknpWorkspace ws;
            iknpExtendReceiverInto(ch, setup, choices, 0, pool, ws,
                                   t.data());
        });

    double bytes_per_cot = double(wire.totalBytes) / n;
    // 128 columns of n bits = 16 B/COT plus small length prefixes.
    EXPECT_GT(bytes_per_cot, 15.9);
    EXPECT_LT(bytes_per_cot, 16.5);
}

} // namespace
} // namespace ironman::ot
