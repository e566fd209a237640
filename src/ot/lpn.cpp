#include "ot/lpn.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

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

constexpr size_t kRowsPerChunk = 256;

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

void
checkBitRange(const LpnParams &p, const BitVec &in, const BitVec &inout,
              size_t row0, size_t count)
{
    IRONMAN_CHECK(in.size() == p.k && inout.size() == p.n);
    IRONMAN_CHECK(row0 % kBlockRows == 0 && row0 + count <= p.n,
                  "bit encode ranges start on a 64-row word");
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
// Bit gather-XOR kernels (the tape path of encodeBits)
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

void
LpnEncoder::encodeBlocks(const Block *in, Block *inout, uint64_t row0,
                         size_t count, LpnEncodeScratch &) const
{
    // Whole 64-row mini-tapes, of which an unaligned head or tail
    // uses only part: the block base is lane-aligned, so the kernels
    // see the same layout as on the engine's tape.
    const GatherFn gather = activeGatherKernel();
    alignas(32) uint32_t mini[kBlockRows * kMaxWeight];
    const uint64_t end = row0 + count;
    for (uint64_t b = row0 - row0 % kBlockRows; b < end; b += kBlockRows) {
        laneBlock(b, mini);
        const uint64_t lo = std::max(b, row0);
        const uint64_t hi = std::min(b + kBlockRows, end);
        gather(in, inout + (lo - row0), mini, lo - b, hi - lo, p.d);
    }
}

void
LpnEncoder::buildTape(LpnIndexTape &tape, size_t rows,
                      common::ThreadPool &pool,
                      LpnEncodeScratch *scratch) const
{
    if (tape.ready() && tape.builtFor == p && tape.rows >= rows)
        return;

    const size_t groups = (rows + kLane - 1) / kLane;
    tape.idx.assign(groups * p.d * kLane, 0);
    tape.rows = rows;
    tape.builtFor = p;
    uint32_t *out = tape.idx.data();

    // Unpack + `% k` reduce each row exactly once, transposing into
    // the lane layout as we go. Chunked so the row-major staging stays
    // in the per-worker scratch.
    constexpr size_t kChunkGroups = kRowsPerChunk / kLane;
    pool.parallelFor(groups, [&](int worker, size_t glo, size_t ghi) {
        LpnEncodeScratch &sc = scratch[worker];
        for (size_t g0 = glo; g0 < ghi; g0 += kChunkGroups) {
            const size_t gcnt = std::min(kChunkGroups, ghi - g0);
            const size_t row0 = g0 * kLane;
            const size_t cnt =
                std::min(gcnt * kLane, rows - std::min(rows, row0));
            if (cnt == 0)
                continue;
            if (sc.idx.size() < kRowsPerChunk * p.d)
                sc.idx.resize(kRowsPerChunk * p.d);
            rowIndicesBatch(row0, cnt, sc.idx.data());
            for (size_t r = 0; r < cnt; ++r) {
                const size_t gr = row0 + r;
                uint32_t *dst = out + (gr / kLane) * p.d * kLane +
                                (gr % kLane);
                for (unsigned i = 0; i < p.d; ++i)
                    dst[i * kLane] = sc.idx[r * p.d + i];
            }
        }
    });
}

void
LpnEncoder::encodeBlocksTape(const Block *in, Block *inout, uint64_t row0,
                             size_t count, const LpnIndexTape &tape) const
{
    IRONMAN_CHECK(tape.ready() && tape.builtFor == p,
                  "tape built for different LPN params");
    IRONMAN_CHECK(row0 + count <= tape.rows, "tape too short");
    activeGatherKernel()(in, inout, tape.idx.data(), row0, count, p.d);
}

void
LpnEncoder::encodeBits(const BitVec &in, BitVec &inout, size_t row0,
                       size_t count) const
{
    checkBitRange(p, in, inout, row0, count);
    const BitGatherFn gather = activeBitKernel();
    alignas(32) uint32_t mini[kBlockRows * kMaxWeight];
    const uint64_t *in_words = in.rawWords().data();
    uint64_t *out_words = inout.rawWords().data();
    for (size_t b = row0; b < row0 + count; b += kBlockRows) {
        laneBlock(b, mini);
        gather(in_words, out_words + b / kBlockRows, mini,
               std::min(kBlockRows, row0 + count - b), p.d);
    }
}

void
LpnEncoder::encodeBlocksAndBits(const Block *in, Block *inout,
                                const BitVec &bits_in, BitVec &bits_inout,
                                size_t row0, size_t count) const
{
    checkBitRange(p, bits_in, bits_inout, row0, count);
    const GatherFn gather = activeGatherKernel();
    const BitGatherFn bit_gather = activeBitKernel();
    alignas(32) uint32_t mini[kBlockRows * kMaxWeight];
    const uint64_t *in_words = bits_in.rawWords().data();
    uint64_t *out_words = bits_inout.rawWords().data();
    for (size_t b = row0; b < row0 + count; b += kBlockRows) {
        laneBlock(b, mini);
        const size_t rows = std::min(kBlockRows, row0 + count - b);
        gather(in, inout + (b - row0), mini, 0, rows, p.d);
        bit_gather(in_words, out_words + b / kBlockRows, mini, rows, p.d);
    }
}

void
LpnEncoder::encodeBitsTape(const BitVec &in, BitVec &inout, size_t row0,
                           size_t count, const LpnIndexTape &tape) const
{
    checkBitRange(p, in, inout, row0, count);
    IRONMAN_CHECK(tape.ready() && tape.builtFor == p &&
                      tape.rows >= row0 + count,
                  "tape too short for bit encode");
    activeBitKernel()(in.rawWords().data(),
                      inout.rawWords().data() + row0 / kBlockRows,
                      tape.idx.data() + (row0 / kLane) * p.d * kLane,
                      count, p.d);
}

} // namespace ironman::ot
