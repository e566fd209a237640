#include "crypto/prg.h"

#include "common/logging.h"

namespace ironman::crypto {

TreePrg::TreePrg(PrgKind kind, unsigned max_arity)
    : prgKind(kind), exp(makeTreeExpander(kind, max_arity))
{
    IRONMAN_CHECK(max_arity >= 2);
}

uint64_t
TreePrg::opsForExpansion(unsigned arity) const
{
    return exp->opsPerSeed(arity);
}

void
TreePrg::expand(const Block &parent, Block *children, unsigned arity)
{
    exp->expand(&parent, children, 1, arity);
}

void
TreePrg::expandLevel(const Block *parents, size_t count, Block *children,
                     unsigned arity)
{
    exp->expand(parents, children, count, arity);
}

} // namespace ironman::crypto
