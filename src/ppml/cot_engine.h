/**
 * @file
 * Persistent dual-direction COT engine for the PPML online phase.
 *
 * The paper's system model (Sec. 5.2) keeps one OTE engine alive for
 * the whole inference: both OT directions (the role-switching
 * requirement of the unified architecture) are backed by long-lived
 * Ferret sessions that bootstrap themselves, and every nonlinear
 * layer draws correlations from the buffered output instead of
 * re-running setup. FerretCotEngine is that component in software:
 *
 *   - direction A: party 0 is the OTE sender, party 1 the receiver;
 *   - direction B: roles swapped;
 *
 * both multiplexed over the one protocol channel, each banked in a
 * ppml::CotBank. A take extends only while its direction's bank holds
 * fewer correlations than it asks for. Because the two parties
 * consume each direction in lockstep (every GMW batch spends the same
 * count on both sides), refills trigger at the same protocol step on
 * both sides and the interleaved extensions stay aligned.
 *
 * Setup substitutes the trusted dealer for the one-time base-OT
 * phase, exactly like the rest of the repository (DESIGN.md): both
 * parties derive the dealer tape from the shared @p setup_seed and
 * keep only their own halves.
 *
 * Both parties must construct the engine at the same protocol point —
 * the constructor primes one extension per direction interactively.
 */

#ifndef IRONMAN_PPML_COT_ENGINE_H
#define IRONMAN_PPML_COT_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "net/channel.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ppml/cot_bank.h"
#include "ppml/cot_supply.h"

namespace ironman::ppml {

/** Long-lived, self-refilling dual-direction COT supply. */
class FerretCotEngine : public CotSupply
{
  public:
    /**
     * @param party 0 or 1; both parties pass identical @p params and
     *        @p setup_seed.
     * @param threads Worker-pool width of the underlying OTE engines.
     */
    FerretCotEngine(net::Channel &ch, int party,
                    const ot::FerretParams &params, uint64_t setup_seed,
                    int threads = 1);

    /** Offset of the direction where this party is the OT sender. */
    const Block &sendDelta() const override { return sendDelta_; }

    /**
     * Take @p n send-direction COT strings. Runs extensions on the
     * channel while the bank is short — the peer must be inside its
     * matching takeRecv().
     */
    void takeSend(size_t n, std::vector<Block> *q) override;

    /** Take @p n recv-direction correlations; refills as takeSend(). */
    void takeRecv(size_t n, BitVec *bits,
                  std::vector<Block> *t) override;

    /** Extensions run so far (both directions, including priming). */
    uint64_t extensionsRun() const { return extensions; }

  private:
    void refillSend(size_t need);
    void refillRecv(size_t need);

    Block sendDelta_;
    std::unique_ptr<ot::FerretCotSender> sender;
    std::unique_ptr<ot::FerretCotReceiver> receiver;
    Rng extendRng;

    CotBank sendBank;
    CotBank recvBank;
    std::vector<Block> stage; ///< one extension's strings, either direction
    BitVec stageBits;         ///< one receiver extension's choice bits

    uint64_t extensions = 0;
};

} // namespace ironman::ppml

#endif // IRONMAN_PPML_COT_ENGINE_H
