/**
 * @file
 * PCG-style OTE parameter sets (Table 4 of the paper).
 *
 * Each set fixes the LPN instance (n, k, t) and the GGM tree size l.
 * Our tree size is derived as the next power of two >= ceil(n/t) (the
 * regular-noise bucket width). For the 2^20..2^22 sets this equals the
 * paper's l; for 2^23/2^24 the paper lists l = 8192 although
 * ceil(n/t) > 8192 — we keep the paper's (n, k, t) and grow the tree
 * to 16384 so every bucket is fully covered by its tree (documented in
 * EXPERIMENTS.md; noise weight and security are unchanged).
 *
 * l fixes the tree's shape — its levels, arities and the log2(l) base
 * COTs each tree consumes — but not the work: the engines ask SPCOT
 * for bucketSize() leaves per tree (spcotConfigOf), so each tree is
 * expanded only over its first w leaves, the bucket rounded up to the
 * last level's arity (8224 of 16384 at 2^24, 2548 of 4096 at 2^20).
 * Those are all the leaves a bucket's rows read. The punctured PRF is
 * only ever evaluated on the bucket's domain, as in FERRET's
 * bootstrap, so the outputs equal those of full trees.
 */

#ifndef IRONMAN_OT_FERRET_PARAMS_H
#define IRONMAN_OT_FERRET_PARAMS_H

#include <bit>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/seed_expander.h"

namespace ironman::ot {

/**
 * The FerretParams fields that fix an engine's sizes and output (not
 * its name or Table 4's reporting fields): engines of one shape are
 * interchangeable.
 */
struct FerretShape
{
    size_t n, k, t;
    unsigned arity;
    crypto::PrgKind prg;
    unsigned lpnWeight;
    uint64_t lpnSeed;

    auto operator<=>(const FerretShape &) const = default;
};

/** One OTE protocol configuration. */
struct FerretParams
{
    std::string name;     ///< e.g. "2^20"
    size_t n = 0;         ///< LPN output length
    size_t k = 0;         ///< LPN input length (pre-generated COTs)
    size_t t = 0;         ///< noise weight == number of GGM trees
    size_t paperEll = 0;  ///< l as printed in Table 4 (reporting only)
    double paperBitSec = 0.0; ///< bit security claimed in Table 4

    unsigned arity = 4;   ///< GGM tree arity (Ironman default: 4-ary)
    crypto::PrgKind prg = crypto::PrgKind::ChaCha8;
    unsigned lpnWeight = 10; ///< non-zeros per row of A
    uint64_t lpnSeed = 0x120394785612aa01ULL;

    FerretShape
    shape() const
    {
        return {n, k, t, arity, prg, lpnWeight, lpnSeed};
    }

    /** Regular-noise bucket width: ceil(n / t). */
    size_t bucketSize() const { return (n + t - 1) / t; }

    /** GGM tree leaf count: next power of two >= bucketSize(). */
    size_t treeLeaves() const { return std::bit_ceil(bucketSize()); }

    /** Base COTs consumed per tree. */
    size_t cotsPerTree() const { return std::countr_zero(treeLeaves()); }

    /** Base COTs one extension consumes (and re-reserves): k + t*log2(l). */
    size_t reservedCots() const { return k + t * cotsPerTree(); }

    /** Fresh COTs each extension hands to the application. */
    size_t usableOts() const { return n - reservedCots(); }
};

/**
 * Table 4 parameter set for 2^logOts output OTs per execution,
 * logOts in [20, 24].
 */
FerretParams paperParamSet(int log_ots);

/** All five Table 4 sets, in order. */
std::vector<FerretParams> allPaperParamSets();

/**
 * A small set for unit tests and examples: n = 12800, k = 1024,
 * t = 20 (NOT cryptographically sized — protocol-correctness only).
 * bucketSize() (640) != treeLeaves() (1024), like every Table-4 set;
 * each tree expands its 640 bucket leaves.
 */
FerretParams tinyTestParams();

/**
 * The tiny set with n raised to t * treeLeaves() (n = 20480, bucket
 * width 1024 == tree leaves): the bucket == tree edge shape, where
 * every leaf is an output row and the last row is the slot's last
 * leaf. NOT cryptographically sized — protocol-correctness tests only.
 */
FerretParams tinyAlignedParams();

} // namespace ironman::ot

#endif // IRONMAN_OT_FERRET_PARAMS_H
