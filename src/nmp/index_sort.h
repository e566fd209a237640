/**
 * @file
 * Offline index sorting for the memory-side cache (Sec. 5.3, Fig. 11).
 *
 * The LPN access stream (10 random reads of a 128-bit vector entry per
 * output row) is rearranged offline — legal because the code matrix A
 * is fixed — into a layout with far better locality:
 *
 *  - Column Swapping: columns are renumbered in first-touch order and
 *    the input vector is stored permuted, turning scattered column ids
 *    into a compact ascending range (spatial locality).
 *  - Row Look-ahead: within a window of W consecutive rows (bounded by
 *    the Rank-NMP's XorSum partial-sum buffer, one 128-bit slot per
 *    in-flight row), accesses are served in column order rather than
 *    row order; a Rowidx tag per access routes each fetched value to
 *    its row's partial sum. Windows alternate ascending/descending
 *    column order (boustrophedon) so each window re-touches the most
 *    recently cached tail of its predecessor (temporal locality).
 *
 * The transformation is a pure schedule change: XOR is commutative and
 * associative, so results are bit-identical (tested).
 */

#ifndef IRONMAN_NMP_INDEX_SORT_H
#define IRONMAN_NMP_INDEX_SORT_H

#include <cstdint>
#include <vector>

#include "common/block.h"
#include "ot/lpn.h"
#include "sim/cache.h"

namespace ironman::nmp {

/** Sorting options (each paper ablation toggles one). */
struct SortOptions
{
    bool columnSwap = true;
    bool rowLookahead = true;
    /// Look-ahead window in rows == XorSum buffer entries.
    size_t windowRows = 4096;
    /// Alternate window direction for cross-window temporal reuse.
    bool zigzag = true;
    /**
     * Replay the software path's access order instead of the
     * row-major stream: the SIMD gather-XOR kernels walk the
     * lane-transposed LpnIndexTape one 8-row group at a time,
     * tap-major within the group (tap i's 8 indices are one
     * contiguous tape line), with a row-major scalar tail. Only
     * meaningful with rowLookahead off — the look-ahead re-sorts the
     * window's accesses either way, so it subsumes this order.
     */
    bool laneTape = false;
};

/** The software-path access order (lane-tape replay, sorting off). */
inline SortOptions
softwareTapeOrder()
{
    SortOptions opt;
    opt.columnSwap = false;
    opt.rowLookahead = false;
    opt.zigzag = false;
    opt.laneTape = true;
    return opt;
}

/** Sorted CSR-like layout of a row range of the LPN matrix. */
struct SortedLpnLayout
{
    size_t rowBegin = 0;
    size_t rowCount = 0;
    size_t k = 0;
    unsigned d = 10;

    /// colidx[a]: column (in the *stored*, permuted numbering) of the
    /// a-th access in service order.
    std::vector<uint32_t> colidx;
    /// rowidx[a]: owning row (relative to rowBegin) of the a-th access.
    std::vector<uint32_t> rowidx;
    /// newToOld[c]: stored column c holds original column newToOld[c]
    /// (identity when column swapping is off).
    std::vector<uint32_t> newToOld;

    size_t accesses() const { return colidx.size(); }
};

/**
 * Build the sorted layout for rows [row0, row0+rows) of @p enc.
 * Deterministic; both the functional encoder and the cache simulator
 * replay the same stream.
 */
SortedLpnLayout buildSortedLayout(const ot::LpnEncoder &enc, uint64_t row0,
                                  size_t rows, const SortOptions &opt);

/**
 * Functional re-encode through the layout: inout[j] ^= XOR of the d
 * vector entries of row rowBegin+j. @p in is the *original* (not
 * permuted) length-k input; the layout's permutation is applied
 * internally. Must agree bit-for-bit with LpnEncoder::encode.
 */
void encodeWithLayout(const SortedLpnLayout &layout, const Block *in,
                      Block *inout);

/**
 * Replay the layout's vector accesses against @p cache (16-byte
 * entries starting at byte 0) and optionally collect the 64-byte miss
 * line addresses in service order.
 */
sim::CacheStats simulateLayoutCache(const SortedLpnLayout &layout,
                                    sim::CacheSim &cache,
                                    std::vector<uint64_t> *miss_lines
                                        = nullptr);

} // namespace ironman::nmp

#endif // IRONMAN_NMP_INDEX_SORT_H
