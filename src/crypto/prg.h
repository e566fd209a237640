/**
 * @file
 * Length-expanding PRGs for GGM-tree construction.
 *
 * The paper's SPCOT optimization (Sec. 4.1) is a joint choice of
 * (PRG construction, tree arity):
 *
 *   - AES:    expanding one parent into m children costs m AES calls
 *             (one fixed key per child slot), Fig. 6(a)/(b);
 *   - ChaCha: one core call yields 512 bits = 4 children, so m children
 *             cost ceil(m/4) calls, Fig. 6(c)/(d).
 *
 * TreePrg is a thin compatibility wrapper over the unified
 * SeedExpander interface (crypto/seed_expander.h); it keeps the
 * historical per-parent API and the operation counter benches use to
 * reproduce the Fig. 7(a) numbers. New code should prefer
 * SeedExpander directly.
 *
 * The LPN index generator is not here: LpnEncoder (ot/lpn.h) draws
 * row indices from AES in counter mode inside its fused kernels.
 */

#ifndef IRONMAN_CRYPTO_PRG_H
#define IRONMAN_CRYPTO_PRG_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/block.h"
#include "crypto/seed_expander.h"

namespace ironman::crypto {

/**
 * Seed-to-children expander used by GGM trees.
 *
 * Both parties must construct the expander with identical parameters
 * (the key material is fixed, derived from public constants), so the
 * receiver's reconstruction matches the sender's expansion.
 */
class TreePrg
{
  public:
    /**
     * @param kind Primitive choice.
     * @param max_arity Largest child count expand() will be asked for.
     */
    TreePrg(PrgKind kind, unsigned max_arity);

    /** Expand @p parent into @p arity children (deterministic). */
    void expand(const Block &parent, Block *children, unsigned arity);

    /**
     * Expand a whole tree level: @p count parents, children written to
     * children[j*arity + c]. Identical output to calling expand() per
     * parent, but batches the AES pipeline (the software analogue of
     * the breadth-first hardware schedule of Sec. 4.3).
     */
    void expandLevel(const Block *parents, size_t count, Block *children,
                     unsigned arity);

    /** Primitive calls one expansion of width @p arity costs. */
    uint64_t opsForExpansion(unsigned arity) const;

    /** Total primitive invocations since construction / resetOps(). */
    uint64_t ops() const { return exp->ops(); }

    void resetOps() { exp->resetOps(); }

    PrgKind kind() const { return prgKind; }

    /** Underlying unified expander (one instance — not thread-safe). */
    SeedExpander &expander() { return *exp; }

  private:
    PrgKind prgKind;
    std::unique_ptr<SeedExpander> exp;
};

} // namespace ironman::crypto

#endif // IRONMAN_CRYPTO_PRG_H
