#include "ot/lpn.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <mutex>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#define IRONMAN_HAVE_SSE2 1
#endif

namespace ironman::ot {

namespace {

/** AES key binding the matrix to its public seed. */
Block
matrixKey(uint64_t seed)
{
    return Block(seed ^ 0xa5a5a5a5deadbeefULL, ~seed);
}

constexpr size_t kLane = LpnIndexTape::kLane;

// ---------------------------------------------------------------------------
// Matrix generation: 64 rows per AES batch
// ---------------------------------------------------------------------------

/** Rows of one generated block: one word of bit-encode output. */
constexpr size_t kBlockRows = 64;
constexpr unsigned kCallsPerRow = LpnEncoder::aesCallsPerRow;
constexpr size_t kBlockCtrs = kBlockRows * kCallsPerRow;
constexpr size_t kRowWords = 4 * kCallsPerRow;

/**
 * Tap words of rows [row0, row0+64): AES block c of row r is
 * AES_key(r*3 + c), so the block's counters are consecutive. Word
 * 4c + w of a row is 32-bit word w (low first) of its block c; rows
 * take the first d of their 12 words.
 */
void
blockWords(const crypto::Aes128 &aes, uint64_t row0, uint32_t *words)
{
    static_assert(std::endian::native == std::endian::little,
                  "tap words are the blocks' little-endian 32-bit words");
    Block ks[kBlockCtrs];
    for (size_t i = 0; i < kBlockCtrs; ++i)
        ks[i] = Block::fromUint64(row0 * kCallsPerRow + i);
    aes.encryptBatch(ks, ks, kBlockCtrs);
    std::memcpy(words, ks, sizeof(ks));
}

const LpnParams &
checked(const LpnParams &p)
{
    IRONMAN_CHECK(p.n > 0 && p.k > 1 && p.k <= UINT32_MAX && p.d >= 1);
    IRONMAN_CHECK(p.d <= LpnEncoder::kMaxWeight,
                  "3 AES calls supply at most 12 indices");
    return p;
}

// ---------------------------------------------------------------------------
// Gather-XOR kernels over the lane-transposed tape
// ---------------------------------------------------------------------------

void
gatherXorScalar(const Block *in, Block *inout, const uint32_t *tape,
                size_t row0, size_t count, unsigned d)
{
    for (size_t j = 0; j < count; ++j) {
        const size_t r = row0 + j;
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        Block acc = inout[j];
        for (unsigned i = 0; i < d; ++i)
            acc ^= in[g[i * kLane]];
        inout[j] = acc;
    }
}

#ifdef IRONMAN_HAVE_SSE2

void
gatherXorSse2(const Block *in, Block *inout, const uint32_t *tape,
              size_t row0, size_t count, unsigned d)
{
    size_t j = 0;
    // Scalar head until the row index is lane-aligned.
    while (j < count && ((row0 + j) % kLane) != 0) {
        gatherXorScalar(in, inout + j, tape, row0 + j, 1, d);
        ++j;
    }

    // Full groups: kLane independent accumulators hide the latency of
    // the randomly addressed 16-byte gathers; each tap's kLane indices
    // are one contiguous 32-byte read of the transposed tape.
    for (; j + kLane <= count; j += kLane) {
        const size_t r = row0 + j;
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane;
        __m128i acc[kLane];
        for (size_t x = 0; x < kLane; ++x)
            acc[x] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(inout + j + x));
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t *gi = g + i * kLane;
            for (size_t x = 0; x < kLane; ++x)
                acc[x] = _mm_xor_si128(
                    acc[x], _mm_loadu_si128(
                                reinterpret_cast<const __m128i *>(
                                    in + gi[x])));
        }
        for (size_t x = 0; x < kLane; ++x)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(inout + j + x),
                             acc[x]);
    }

    if (j < count)
        gatherXorScalar(in, inout + j, tape, row0 + j, count - j, d);
}

#endif // IRONMAN_HAVE_SSE2

// ---------------------------------------------------------------------------
// Bit gather-XOR kernels
// ---------------------------------------------------------------------------

/** Scalar reference: one row at a time over the packed words. */
void
bitGatherScalar(const uint64_t *in, uint64_t *inout, const uint32_t *tape,
                size_t rows, unsigned d)
{
    for (size_t r = 0; r < rows; ++r) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        uint64_t bit = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t idx = g[i * kLane];
            bit ^= (in[idx >> 6] >> (idx & 63)) & 1;
        }
        inout[r >> 6] ^= bit << (r & 63);
    }
}

/**
 * Word-at-a-time kernel: each 8-row lane group accumulates its result
 * bits in a register and lands as ONE byte XOR — no per-bit get/set.
 */
void
bitGatherWords(const uint64_t *in, uint64_t *inout, const uint32_t *tape,
               size_t rows, unsigned d)
{
    static_assert(kLane == 8, "one lane group == one output byte");
    uint8_t *out_bytes = reinterpret_cast<uint8_t *>(inout);
    size_t r = 0;
    for (; r + kLane <= rows; r += kLane) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane;
        unsigned acc = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t *gi = g + i * kLane;
            for (size_t x = 0; x < kLane; ++x)
                acc ^= unsigned((in[gi[x] >> 6] >> (gi[x] & 63)) & 1)
                       << x;
        }
        out_bytes[r / 8] ^= uint8_t(acc);
    }
    for (; r < rows; ++r) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        uint64_t bit = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t idx = g[i * kLane];
            bit ^= (in[idx >> 6] >> (idx & 63)) & 1;
        }
        inout[r >> 6] ^= bit << (r & 63);
    }
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

using GatherFn = void (*)(const Block *, Block *, const uint32_t *,
                          size_t, size_t, unsigned);
using BitGatherFn = void (*)(const uint64_t *, uint64_t *,
                             const uint32_t *, size_t, unsigned);

std::atomic<LpnKernel> gatherKernelMode{LpnKernel::Auto};

/** Auto: the widest kernel CPUID reports, fixed for the process. */
GatherFn
pickAutoKernel()
{
#ifdef IRONMAN_HAVE_SSE2
    if (detail::lpnAvx2Supported())
        return &detail::lpnGatherXorAvx2;
    return &gatherXorSse2;
#else
    return &gatherXorScalar;
#endif
}

GatherFn
activeGatherKernel()
{
    switch (gatherKernelMode.load(std::memory_order_relaxed)) {
      case LpnKernel::Scalar:
        return &gatherXorScalar;
#ifdef IRONMAN_HAVE_SSE2
      case LpnKernel::Sse2:
        return &gatherXorSse2;
#endif
      default:
        break;
    }
    return pickAutoKernel();
}

BitGatherFn
activeBitKernel()
{
    switch (gatherKernelMode.load(std::memory_order_relaxed)) {
      case LpnKernel::Scalar:
        return &bitGatherScalar;
      case LpnKernel::Sse2:
        return &bitGatherWords;
      default:
        break;
    }
#ifdef IRONMAN_HAVE_SSE2
    if (detail::lpnAvx2Supported())
        return &detail::lpnBitGatherXorAvx2;
#endif
    return &bitGatherWords;
}

} // namespace

void
LpnEncoder::setKernel(LpnKernel kernel)
{
    gatherKernelMode.store(kernel, std::memory_order_relaxed);
}

const char *
LpnEncoder::activeKernelName()
{
    const GatherFn fn = activeGatherKernel();
    if (fn == &gatherXorScalar)
        return "scalar";
#ifdef IRONMAN_HAVE_SSE2
    if (fn == &gatherXorSse2)
        return "sse2";
    if (fn == &detail::lpnGatherXorAvx2)
        return "avx2-insert";
#endif
    return "?";
}

LpnEncoder::LpnEncoder(const LpnParams &params)
    : p(checked(params)), aes(matrixKey(p.seed)), mod(uint32_t(p.k))
{
}

void
LpnEncoder::rowIndices(uint64_t row, uint32_t *out) const
{
    rowIndicesBatch(row, 1, out);
}

void
LpnEncoder::rowIndicesBatch(uint64_t row0, size_t count,
                            uint32_t *out) const
{
    uint32_t words[kBlockRows * kRowWords];
    const uint64_t end = row0 + count;
    for (uint64_t b = row0 - row0 % kBlockRows; b < end; b += kBlockRows) {
        blockWords(aes, b, words);
        const uint64_t lo = std::max(b, row0);
        const uint64_t hi = std::min(b + kBlockRows, end);
        for (uint64_t r = lo; r < hi; ++r) {
            const uint32_t *w = words + (r - b) * kRowWords;
            uint32_t *dst = out + (r - row0) * p.d;
            for (unsigned i = 0; i < p.d; ++i)
                dst[i] = mod(w[i]);
        }
    }
}

void
LpnEncoder::laneBlock(uint64_t row0, uint32_t *mini) const
{
    uint32_t words[kBlockRows * kRowWords];
    blockWords(aes, row0, words);
    for (size_t r = 0; r < kBlockRows; ++r) {
        const uint32_t *w = words + r * kRowWords;
        uint32_t *dst = mini + (r / kLane) * p.d * kLane + r % kLane;
        for (unsigned i = 0; i < p.d; ++i)
            dst[i * kLane] = mod(w[i]);
    }
}

template <typename Fn>
void
LpnEncoder::walk(const LpnIndexTape *tape, uint64_t row0, size_t count,
                 Fn &&fn) const
{
    if (tape) {
        fn(tape->idx.data(), uint64_t(0), row0, row0 + count);
        return;
    }
    // Whole 64-row mini-tapes, of which an unaligned head or tail
    // uses only part: the block base is lane-aligned, so the kernels
    // see the same layout as on a built tape.
    alignas(32) uint32_t mini[kBlockRows * kMaxWeight];
    const uint64_t end = row0 + count;
    for (uint64_t b = row0 - row0 % kBlockRows; b < end; b += kBlockRows) {
        laneBlock(b, mini);
        fn(mini, b, std::max(b, row0), std::min(b + kBlockRows, end));
    }
}

void
LpnEncoder::encode(const LpnIndexTape *tape, uint64_t row0, size_t count,
                   const Block *in, Block *inout, const BitVec *bits_in,
                   BitVec *bits_inout) const
{
    if (count == 0)
        return;
    IRONMAN_CHECK(!tape || (tape->ready() && tape->builtFor == p &&
                            row0 + count <= tape->rows),
                  "tape built for different LPN params or too short");
    const GatherFn gather = inout ? activeGatherKernel() : nullptr;
    const BitGatherFn bit_gather = bits_inout ? activeBitKernel() : nullptr;
    const uint64_t *in_words = nullptr;
    uint64_t *out_words = nullptr;
    if (bits_inout) {
        IRONMAN_CHECK(bits_in->size() == p.k && bits_inout->size() == p.n);
        IRONMAN_CHECK(row0 % kBlockRows == 0 && row0 + count <= p.n,
                      "bit encode ranges start on a 64-row word");
        in_words = bits_in->rawWords().data();
        out_words = bits_inout->rawWords().data();
    }
    walk(tape, row0, count,
         [&](const uint32_t *t, uint64_t base, uint64_t lo, uint64_t hi) {
             if (gather)
                 gather(in, inout + (lo - row0), t, lo - base, hi - lo, p.d);
             // lo is 64-row aligned here, so the group offset is exact.
             if (bit_gather)
                 bit_gather(in_words, out_words + lo / kBlockRows,
                            t + (lo - base) * p.d, hi - lo, p.d);
         });
}

void
LpnEncoder::buildTape(LpnIndexTape &tape, size_t rows,
                      common::ThreadPool &pool, LpnEncodeScratch *) const
{
    const size_t groups = (rows + kLane - 1) / kLane;
    tape.idx.resize(groups * p.d * kLane);
    tape.rows = rows;
    tape.builtFor = p;
    uint32_t *out = tape.idx.data();

    // Rows [b, b+64) of the tape are laneBlock(b)'s mini-tape, so each
    // worker writes its own blocks in place. A partial last block goes
    // through the stack and copies only the groups the tape holds.
    const size_t full = rows / kBlockRows;
    pool.parallelFor((rows + kBlockRows - 1) / kBlockRows,
                     [&](int, size_t lo, size_t hi) {
        for (size_t blk = lo; blk < hi; ++blk) {
            uint32_t *dst = out + blk * kBlockRows * p.d;
            if (blk < full) {
                laneBlock(blk * kBlockRows, dst);
                continue;
            }
            alignas(32) uint32_t mini[kBlockRows * kMaxWeight];
            laneBlock(blk * kBlockRows, mini);
            std::copy_n(mini, (groups - blk * (kBlockRows / kLane)) *
                                  p.d * kLane,
                        dst);
        }
    });
}

std::shared_ptr<const LpnIndexTape>
sharedLpnTape(const LpnEncoder &enc, common::ThreadPool &pool)
{
    const LpnParams &p = enc.params();
    if (LpnIndexTape::bytesFor(p.n, p.d) > kLpnTapeBytesCap)
        return nullptr;
    static std::mutex m;
    static std::map<LpnParams, std::weak_ptr<const LpnIndexTape>> live;

    std::lock_guard<std::mutex> lock(m);
    std::weak_ptr<const LpnIndexTape> &slot = live[p];
    if (auto tape = slot.lock())
        return tape;
    auto tape = std::make_shared<LpnIndexTape>();
    enc.buildTape(*tape, p.n, pool);
    slot = tape;
    return tape;
}

} // namespace ironman::ot
