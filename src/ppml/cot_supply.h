/**
 * @file
 * The correlation-supply abstraction the PPML online phase consumes.
 *
 * SecureCompute (and any other GMW-style consumer) needs exactly three
 * things from its COT source: the send-direction offset, batches of
 * sender strings, and batches of receiver (choice, t) pairs. CotSupply
 * names that contract so the source can be
 *
 *   - ppml::FerretCotEngine — the in-process dual-direction engine
 *     that extends on the protocol channel itself,
 *   - svc::ReservoirCotSupply — client-side stocks refilled in the
 *     background from COT-service sessions (src/svc), so the online
 *     phase never stalls on extension latency, or
 *   - svc::OperatorCotSupply — the service operator's halves of the
 *     same sessions.
 *
 * Each source banks its correlations in a ppml::CotBank, and every
 * take copies out of that bank into caller storage: the consumer owns
 * (and reuses) the buffers and counts what it took. Both parties must
 * consume each direction in lockstep for the halves to line up.
 */

#ifndef IRONMAN_PPML_COT_SUPPLY_H
#define IRONMAN_PPML_COT_SUPPLY_H

#include <cstddef>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"

namespace ironman::ppml {

/** Dual-direction COT source for online protocols. */
class CotSupply
{
  public:
    virtual ~CotSupply() = default;

    /** Offset of the direction where this party is the OT sender. */
    virtual const Block &sendDelta() const = 0;

    /**
     * Take @p n send-direction strings into @p q (resized; reused
     * storage allocates nothing).
     */
    virtual void takeSend(size_t n, std::vector<Block> *q) = 0;

    /**
     * Take @p n recv-direction correlations: choice bits into @p bits,
     * strings into @p t (both resized to @p n).
     */
    virtual void takeRecv(size_t n, BitVec *bits,
                          std::vector<Block> *t) = 0;
};

} // namespace ironman::ppml

#endif // IRONMAN_PPML_COT_SUPPLY_H
