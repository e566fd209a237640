/**
 * @file
 * IKNP-style COT extension (Ishai-Kilian-Nissim-Petrank, CRYPTO'03) —
 * the *linear-communication* OTE family the paper contrasts PCG-style
 * OTE against (Sec. 2.3: PCG trades IKNP's n*lambda bits of wire for
 * ~4.3x more computation).
 *
 * Semi-honest protocol: lambda = 128 base OTs seed column PRGs; each
 * extension moves one n-bit derandomization column per base OT
 * (16 bytes per COT), then a 128 x n bit transpose turns columns into
 * row correlations q_i = t_i ^ x_i * Delta.
 *
 * Ported onto the workspace idiom of the FERRET engine: grow-once
 * column buffers and pre-expanded AES key schedules live in an
 * IknpWorkspace, the column PRG fans out over a ThreadPool
 * (contiguous ranges via ThreadPool::parallelFor, bit-identical to
 * serial), and the row outputs land in a caller span — zero heap
 * allocation once warm, so bench/iknp_vs_pcg measures the protocol
 * rather than the allocator.
 *
 * Included so the repository can regenerate the paper's motivating
 * comparison (bench/iknp_vs_pcg); Ferret remains the production path.
 */

#ifndef IRONMAN_OT_IKNP_H
#define IRONMAN_OT_IKNP_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/aes.h"
#include "net/channel.h"

namespace ironman::ot {

/** Output of the lambda base OTs (dealt, like the Ferret base COTs). */
struct IknpSetup
{
    /// Extension sender's secret: Delta bit j selects seed j.
    Block delta;
    /// Sender view: the seed matching each Delta bit.
    std::array<Block, 128> senderSeeds;
    /// Receiver view: both seeds of every pair.
    std::array<std::array<Block, 2>, 128> receiverSeeds;
};

/** Deal the one-time base-OT setup. */
IknpSetup dealIknpSetup(Rng &rng);

/**
 * Reusable state of one IKNP endpoint: 128 grow-once column bit
 * vectors, the received/sent derandomization columns, pre-expanded
 * per-seed AES schedules, and per-worker counter staging. prepare()
 * is idempotent per (setup, n, threads, role).
 */
struct IknpWorkspace
{
    /** Per-worker PRG staging (counter and keystream blocks). */
    struct Worker
    {
        std::vector<Block> ctr;
        std::vector<Block> ks;
    };

    void prepare(const IknpSetup &setup, size_t n, int threads,
                 bool for_sender);

    std::vector<BitVec> cols;  ///< q_j (sender) / t_j = c0_j (receiver)
    std::vector<BitVec> diffs; ///< derandomization columns d_j
    std::vector<crypto::Aes128> ciphers; ///< 128 (sender) or 256 (recv)
    std::vector<Worker> workers;

  private:
    IknpSetup boundTo;   ///< compared by content, not address
    bool bound = false;
    bool boundSender = false;
    int preparedThreads = 0;
};

/**
 * Sender side of one extension producing @p n COTs (n a multiple of
 * 64) into @p rows; the correlation pair is (rows[i], rows[i] ^
 * delta). Zero heap allocation once @p ws is warm.
 * @param session Must be fresh per extension (PRG column offset).
 */
void iknpExtendSenderInto(net::Channel &ch, const IknpSetup &setup,
                          size_t n, uint64_t session,
                          common::ThreadPool &pool, IknpWorkspace &ws,
                          Block *rows);

/**
 * Receiver side: chooses its own @p choices (size n, multiple of 64);
 * writes t_i = q_i ^ choices_i * delta into @p rows.
 */
void iknpExtendReceiverInto(net::Channel &ch, const IknpSetup &setup,
                            const BitVec &choices, uint64_t session,
                            common::ThreadPool &pool, IknpWorkspace &ws,
                            Block *rows);

} // namespace ironman::ot

#endif // IRONMAN_OT_IKNP_H
