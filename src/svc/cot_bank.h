/**
 * @file
 * The one COT stock bank of the service layer: a FIFO of correlation
 * blocks (q or t), plus the matching choice bits for receiver halves,
 * consumed from a moving head. Both stocks that buffer correlations
 * ahead of the GMW online phase use it — the client's svc::Reservoir
 * and each session of the operator's svc::OperatorStock — so they
 * append, take and compact the same way.
 *
 * Compaction is amortized: the consumed prefix is dropped once it is
 * at least kCompactMin entries and at least half the bank, so a
 * long-lived stock stays bounded without moving memory on every take.
 *
 * Not thread-safe: the owning stock serializes access under its lock.
 */

#ifndef IRONMAN_SVC_COT_BANK_H
#define IRONMAN_SVC_COT_BANK_H

#include <cstddef>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"

namespace ironman::svc {

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

} // namespace ironman::svc

#endif // IRONMAN_SVC_COT_BANK_H
