/**
 * @file
 * OT-based online protocols for nonlinear functions (Sec. 2.2).
 *
 * This is the "online OT protocol" half of the PPML stack: GMW-style
 * two-party computation over XOR/additive secret shares, where every
 * AND gate and multiplexer consumes pre-generated COT correlations —
 * exactly the resource Ironman accelerates. The engine implements:
 *
 *   - batched AND on boolean shares (2 COTs per bit, one per
 *     direction — this is why the protocol needs role switching and a
 *     unified sender/receiver architecture, Sec. 5.2),
 *   - DReLU: the sign bit of an additively shared fixed-point value,
 *     via a log-depth Kogge–Stone carry-prefix ladder — see
 *     ppml/cmp_mode.h for its round/gate counts,
 *   - MUX and ReLU on additive shares (2 COTs per element),
 *   - max-pool style pairwise maximum.
 *
 * These are faithful (semi-honest) protocols, tested against plain
 * evaluation; the per-element COT counts they report anchor the
 * framework cost models in ppml/framework.h.
 *
 * Correlations come from a ppml::CotSupply, taken into buffers this
 * engine owns and reuses across batches; cotsConsumed() is this
 * engine's own count of what it took, whatever the supply.
 */

#ifndef IRONMAN_PPML_SECURE_COMPUTE_H
#define IRONMAN_PPML_SECURE_COMPUTE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "crypto/crhf.h"
#include "net/channel.h"
#include "ot/chosen_ot.h"
#include "ot/cot.h"
#include "ppml/cmp_mode.h"
#include "ppml/cot_engine.h"

namespace ironman::ppml {

/** Two-party GMW engine; instantiate one per party. */
class SecureCompute
{
  public:
    /**
     * Correlations are drawn from a CotSupply — normally a persistent
     * FerretCotEngine (shared channel, self-refilling across layers),
     * or a svc::ReservoirCotSupply stocked by background COT-service
     * sessions, or the operator's svc::OperatorCotSupply. @p supply
     * must outlive this object, and both parties' supplies must hand
     * out matching halves in lockstep.
     *
     * @param party 0 or 1 (party 0 sends first in every batch).
     * @param bitwidth Fixed-point width for arithmetic ops (<= 64).
     */
    SecureCompute(net::Channel &ch, int party, CotSupply &supply,
                  unsigned bitwidth = 32);

    // ---- boolean-share operations ------------------------------------

    /** Local XOR. */
    static BitVec xorShares(const BitVec &a, const BitVec &b);

    /** Batched AND of boolean shares; consumes 2 COTs per bit. */
    BitVec andShares(const BitVec &a, const BitVec &b);

    // ---- additive-share operations (mod 2^bitwidth) -------------------

    /**
     * DReLU: boolean shares of (x >= 0) for additively shared x,
     * where x is interpreted as a signed bitwidth-bit integer, via
     * the Kogge–Stone carry ladder.
     */
    BitVec drelu(const std::vector<uint64_t> &shares);

    /**
     * MUX: additive shares of (b ? x : 0) from boolean shares of b
     * and additive shares of x. 2 COTs per element.
     *
     * Output-share determinism: y_p = r_p + (b ? x_{1-p} : 0) -
     * r_{1-p} depends on the RECONSTRUCTED bit b and the x shares,
     * never on the individual b shares — and the masks r draw from a
     * dedicated per-call counter (muxSeq), not the op-order tweak. So
     * relu() output shares depend only on the reconstructed sign, not
     * on how the DReLU circuit split it into shares.
     */
    std::vector<uint64_t> mux(const BitVec &b_shares,
                              const std::vector<uint64_t> &x_shares);

    /** ReLU = MUX(DReLU(x), x). */
    std::vector<uint64_t> relu(const std::vector<uint64_t> &shares);

    /** Pairwise maximum of two shared vectors (max-pool building block). */
    std::vector<uint64_t> maxElementwise(const std::vector<uint64_t> &a,
                                         const std::vector<uint64_t> &b);

    /**
     * Secure table lookup (the GELU/Softmax/exp building block of
     * SiRNN/Bolt): given additive shares mod N of indices x (N =
     * table.size(), a power of two), returns additive shares mod
     * 2^bitwidth of table[x]. Party 0 acts as the 1-of-N OT sender;
     * log2(N) COTs per element.
     */
    std::vector<uint64_t> lutEval(const std::vector<uint64_t> &x_shares,
                                  const std::vector<uint64_t> &table);

    /** Total COT correlations consumed so far (both directions). */
    size_t cotsConsumed() const { return consumed; }

    /**
     * Batched interactions (AND/MUX/LUT rounds) run so far — the
     * measured round count MlpLayerStat reports; matches
     * ppml::reluRounds() per relu() call by construction.
     */
    unsigned roundsUsed() const { return rounds; }

    unsigned bitwidth() const { return width; }

    uint64_t
    maskValue(uint64_t v) const
    {
        return width == 64 ? v : (v & ((uint64_t(1) << width) - 1));
    }

  private:
    /**
     * One batched chosen-OT where this party is the sender, on the
     * width-packed wire: only the low @p wire_width bits of each
     * message travel (1 for AND gates, bitwidth for MUX arms). The
     * pads stay full-Block CRHF hashes (DESIGN.md invariant 14).
     */
    void otSendBatch(const std::vector<Block> &m0,
                     const std::vector<Block> &m1, unsigned wire_width);
    /** One batched chosen-OT where this party is the receiver. */
    std::vector<Block> otRecvBatch(const BitVec &choices,
                                   unsigned wire_width);

    /** Take @p n send-direction strings into sendCots and count them. */
    void takeSend(size_t n);
    /** Take @p n recv-direction correlations into recvBits/recvCots. */
    void takeRecv(size_t n);

    net::Channel &ch;
    int party;
    CotSupply &supply;
    unsigned width;
    unsigned rounds = 0;
    size_t consumed = 0;
    // Take staging, reused across batches.
    std::vector<Block> sendCots;
    BitVec recvBits;
    std::vector<Block> recvCots;
    crypto::Crhf crhf;
    ot::ChosenOtScratch otScratch;
    Rng localRng;
    uint64_t tweak = 0x10000000;
    /**
     * MUX mask counter, deliberately separate from `tweak`: the tweak
     * advances per COT, so it depends on the comparison circuit's gate
     * count, while the mux masks must not (see mux()).
     */
    uint64_t muxSeq = 0;
};

} // namespace ironman::ppml

#endif // IRONMAN_PPML_SECURE_COMPUTE_H
