/**
 * @file
 * The one COT bank of the stack: a FIFO of correlation blocks (q or
 * t), plus the matching choice bits for receiver halves, consumed
 * from a moving head. Every buffer of correlations ahead of the GMW
 * online phase is one of these, so all of them append, take and
 * compact the same way:
 *
 *   - ppml::FerretCotEngine banks each direction of its in-process
 *     extensions;
 *   - svc::Reservoir banks the client's stock of one COT session;
 *   - svc::OperatorStock banks the operator's halves per session.
 *
 * Compaction is amortized: the consumed prefix is dropped once it is
 * at least kCompactMin entries and at least half the bank, so a
 * long-lived bank stays bounded without moving memory on every take.
 *
 * Not thread-safe: the owner serializes access (the svc stocks under
 * their locks; the engine runs on one protocol thread).
 */

#ifndef IRONMAN_PPML_COT_BANK_H
#define IRONMAN_PPML_COT_BANK_H

#include <cstddef>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"

namespace ironman::ppml {

class CotBank
{
  public:
    /** Smallest consumed prefix worth compacting away. */
    static constexpr size_t kCompactMin = 4096;

    /** Correlations banked and not yet taken. */
    size_t size() const { return blocks.size() - head; }

    /**
     * Bank @p n blocks from @p b; a receiver half also banks bits
     * [0, n) of @p choice. A bank holds one kind: pass @p choice on
     * every append or on none.
     */
    void append(const Block *b, size_t n, const BitVec *choice = nullptr);

    /**
     * Move the next @p n (<= size()) blocks into @p out (resized;
     * reused storage allocates nothing) and, for a receiver half,
     * their choice bits into @p out_bits. Compacts afterwards.
     */
    void take(size_t n, std::vector<Block> *out,
              BitVec *out_bits = nullptr);

  private:
    BitVec bits;               ///< receiver halves only
    std::vector<Block> blocks; ///< q or t
    size_t head = 0;           ///< consumed prefix
};

} // namespace ironman::ppml

#endif // IRONMAN_PPML_COT_BANK_H
