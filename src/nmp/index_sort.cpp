#include "nmp/index_sort.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace ironman::nmp {

SortedLpnLayout
buildSortedLayout(const ot::LpnEncoder &enc, uint64_t row0, size_t rows,
                  const SortOptions &opt)
{
    const auto &p = enc.params();
    SortedLpnLayout layout;
    layout.rowBegin = row0;
    layout.rowCount = rows;
    layout.k = p.k;
    layout.d = p.d;

    // Raw indices for the whole row range.
    std::vector<uint32_t> raw(rows * p.d);
    enc.rowIndicesBatch(row0, rows, raw.data());

    // --- Column Swapping: first-touch renumbering --------------------
    std::vector<uint32_t> oldToNew;
    if (opt.columnSwap) {
        oldToNew.assign(p.k, UINT32_MAX);
        layout.newToOld.reserve(p.k);
        for (uint32_t old_col : raw) {
            if (oldToNew[old_col] == UINT32_MAX) {
                oldToNew[old_col] = uint32_t(layout.newToOld.size());
                layout.newToOld.push_back(old_col);
            }
        }
        // Untouched columns keep a stable order at the end.
        for (uint32_t c = 0; c < p.k; ++c) {
            if (oldToNew[c] == UINT32_MAX) {
                oldToNew[c] = uint32_t(layout.newToOld.size());
                layout.newToOld.push_back(c);
            }
        }
    } else {
        layout.newToOld.resize(p.k);
        std::iota(layout.newToOld.begin(), layout.newToOld.end(), 0);
    }

    auto mapped = [&](size_t a) -> uint32_t {
        return opt.columnSwap ? oldToNew[raw[a]] : raw[a];
    };

    // --- Row Look-ahead: window-sorted service order ------------------
    layout.colidx.resize(rows * p.d);
    layout.rowidx.resize(rows * p.d);

    if (!opt.rowLookahead) {
        if (opt.laneTape) {
            // The lane-transposed tape's service order: per 8-row
            // group, tap-major (each tap's 8 indices are one
            // contiguous tape line in the software kernels), with the
            // scalar row-major tail the kernels also have.
            constexpr size_t lane = ot::LpnIndexTape::kLane;
            size_t out = 0;
            size_t r0 = 0;
            for (; r0 + lane <= rows; r0 += lane)
                for (unsigned i = 0; i < p.d; ++i)
                    for (size_t x = 0; x < lane; ++x) {
                        layout.colidx[out] = mapped((r0 + x) * p.d + i);
                        layout.rowidx[out] = uint32_t(r0 + x);
                        ++out;
                    }
            for (; r0 < rows; ++r0)
                for (unsigned i = 0; i < p.d; ++i) {
                    layout.colidx[out] = mapped(r0 * p.d + i);
                    layout.rowidx[out] = uint32_t(r0);
                    ++out;
                }
            IRONMAN_CHECK(out == layout.colidx.size());
            return layout;
        }
        for (size_t r = 0; r < rows; ++r) {
            for (unsigned i = 0; i < p.d; ++i) {
                size_t a = r * p.d + i;
                layout.colidx[a] = mapped(a);
                layout.rowidx[a] = uint32_t(r);
            }
        }
        return layout;
    }

    const size_t window = std::max<size_t>(opt.windowRows, 1);
    std::vector<std::pair<uint32_t, uint32_t>> bucket; // (col, row)
    size_t out = 0;
    size_t window_id = 0;
    for (size_t wr = 0; wr < rows; wr += window, ++window_id) {
        size_t count = std::min(window, rows - wr);
        bucket.clear();
        bucket.reserve(count * p.d);
        for (size_t r = wr; r < wr + count; ++r)
            for (unsigned i = 0; i < p.d; ++i)
                bucket.emplace_back(mapped(r * p.d + i), uint32_t(r));

        bool descending = opt.zigzag && (window_id & 1);
        if (descending) {
            std::sort(bucket.begin(), bucket.end(),
                      [](const auto &a, const auto &b) {
                          return a.first > b.first;
                      });
        } else {
            std::sort(bucket.begin(), bucket.end());
        }

        for (const auto &[col, row] : bucket) {
            layout.colidx[out] = col;
            layout.rowidx[out] = row;
            ++out;
        }
    }
    IRONMAN_CHECK(out == layout.colidx.size());
    return layout;
}

void
encodeWithLayout(const SortedLpnLayout &layout, const Block *in,
                 Block *inout)
{
    for (size_t a = 0; a < layout.accesses(); ++a) {
        uint32_t stored_col = layout.colidx[a];
        uint32_t orig_col = layout.newToOld[stored_col];
        inout[layout.rowidx[a]] ^= in[orig_col];
    }
}

sim::CacheStats
simulateLayoutCache(const SortedLpnLayout &layout, sim::CacheSim &cache,
                    std::vector<uint64_t> *miss_lines)
{
    sim::CacheStats before = cache.stats();
    const unsigned line = cache.config().lineBytes;
    for (size_t a = 0; a < layout.accesses(); ++a) {
        uint64_t addr = uint64_t(layout.colidx[a]) * sizeof(Block);
        if (!cache.access(addr) && miss_lines)
            miss_lines->push_back(addr / line * line);
    }
    sim::CacheStats delta;
    delta.hits = cache.stats().hits - before.hits;
    delta.misses = cache.stats().misses - before.misses;
    return delta;
}

} // namespace ironman::nmp
