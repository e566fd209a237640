/**
 * @file
 * Unified batched seed-expansion interface.
 *
 * Every GGM-style pseudo-random expansion in the OTE stack — tree
 * levels (AES-NI, portable AES, or ChaCha) and the NMP Unified Unit's
 * functional model — has one shape: child c of seed s is PRG_c(s) for
 * fixed public per-slot constructions (Sec. 2.3.1 / Fig. 6 of the
 * paper). The LPN index generator is not one of them: it is AES in
 * counter mode, fused into the encoder (ot/lpn.h).
 *
 * SeedExpander abstracts that shape behind one batched entry point
 * expand(seeds, out, n, fanout) so protocol code is written once and
 * the primitive choice (and its operation count, for the Fig. 7(a)
 * reproductions) is a construction-time decision. The batch size n is
 * the performance lever: the level-synchronous cross-tree GGM path
 * hands a whole chunk of trees' level-i nodes to one call, which the
 * ChaCha expander runs through its SIMD multi-seed core (8 states per
 * AVX2 pass) and the AES expander through full 8-wide AES-NI
 * pipelines. Engine selection (AES-NI vs portable, AVX2 vs SSE2 vs
 * scalar ChaCha) happens at runtime inside Aes128 / ChaCha.
 *
 * Instances carry mutable scratch and an operation counter, so one
 * instance must not be shared across threads; the batch-SPCOT driver
 * keeps one expander per worker.
 */

#ifndef IRONMAN_CRYPTO_SEED_EXPANDER_H
#define IRONMAN_CRYPTO_SEED_EXPANDER_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/block.h"

namespace ironman::crypto {

/** Which primitive instantiates a PRG. */
enum class PrgKind
{
    Aes,      ///< AES-128, one call per child (AES-NI when available).
    ChaCha8,  ///< 8-round ChaCha, four children per call (Ironman's pick).
    ChaCha12, ///< 12-round ChaCha.
    ChaCha20, ///< 20-round ChaCha (conservative margin).
};

/** Human-readable name ("AES", "ChaCha8", ...). */
std::string prgKindName(PrgKind kind);

/** Batched seed-to-children expander. */
class SeedExpander
{
  public:
    virtual ~SeedExpander() = default;

    /**
     * Expand @p n seeds into @p fanout children each:
     * out[i*fanout + c] = child c of seeds[i]. Deterministic; both
     * parties constructing equal expanders derive equal children.
     * @p out must not alias @p seeds.
     */
    virtual void expand(const Block *seeds, Block *out, size_t n,
                        unsigned fanout) = 0;

    /** Primitive invocations one seed costs at @p fanout. */
    virtual uint64_t opsPerSeed(unsigned fanout) const = 0;

    /** Total primitive invocations since construction. */
    uint64_t ops() const { return opCount; }

  protected:
    explicit SeedExpander(unsigned max_fanout) : maxFan(max_fanout) {}

    unsigned maxFan;
    uint64_t opCount = 0;
};

/**
 * GGM-style tree expander: fixed public per-slot constructions, so a
 * sender and receiver constructing (kind, max_fanout) independently
 * expand identically. AES: child_c = AES_{k_c}(s) ^ s with one
 * nothing-up-my-sleeve key per slot; ChaCha: 4 children per core call.
 */
std::unique_ptr<SeedExpander> makeTreeExpander(PrgKind kind,
                                               unsigned max_fanout);

} // namespace ironman::crypto

#endif // IRONMAN_CRYPTO_SEED_EXPANDER_H
