#include "ot/lpn.h"

#include <algorithm>
#include <atomic>

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

// ---------------------------------------------------------------------------
// Gather-XOR kernels over the lane-transposed tape
// ---------------------------------------------------------------------------

constexpr size_t kLane = LpnIndexTape::kLane;

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

void
LpnEncoder::forceScalarKernel(bool force)
{
    setKernel(force ? LpnKernel::Scalar : LpnKernel::Auto);
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

LpnEncoder::LpnEncoder(const LpnParams &params) : p(params)
{
    IRONMAN_CHECK(p.n > 0 && p.k > 1 && p.d >= 1);
    IRONMAN_CHECK(p.d <= 12, "3 AES calls supply at most 12 indices");
}

void
LpnEncoder::rowIndices(uint64_t row, uint32_t *out) const
{
    LpnEncodeScratch scratch;
    rowIndicesBatch(row, 1, out, scratch);
}

void
LpnEncoder::rowIndicesBatch(uint64_t row0, size_t count, uint32_t *out,
                            LpnEncodeScratch &scratch) const
{
    // The index tape is AES_key(row * 3 + c) for c < 3, expressed as a
    // counter expansion of the per-row seed block row * 3.
    if (!scratch.gen || scratch.genSeed != p.seed) {
        scratch.gen = crypto::makeCtrExpander(matrixKey(p.seed),
                                              aesCallsPerRow);
        scratch.genSeed = p.seed;
    }
    if (scratch.seeds.size() < count)
        scratch.seeds.resize(count);
    if (scratch.ks.size() < count * aesCallsPerRow)
        scratch.ks.resize(count * aesCallsPerRow);

    for (size_t r = 0; r < count; ++r)
        scratch.seeds[r] =
            Block::fromUint64((row0 + r) * aesCallsPerRow);
    scratch.gen->expand(scratch.seeds.data(), scratch.ks.data(), count,
                        aesCallsPerRow);

    for (size_t r = 0; r < count; ++r) {
        uint32_t words[aesCallsPerRow * 4];
        for (unsigned c = 0; c < aesCallsPerRow; ++c) {
            const Block &b = scratch.ks[r * aesCallsPerRow + c];
            words[4 * c + 0] = uint32_t(b.lo);
            words[4 * c + 1] = uint32_t(b.lo >> 32);
            words[4 * c + 2] = uint32_t(b.hi);
            words[4 * c + 3] = uint32_t(b.hi >> 32);
        }
        for (unsigned i = 0; i < p.d; ++i)
            out[r * p.d + i] = words[i] % uint32_t(p.k);
    }
}

void
LpnEncoder::encodeBlocks(const Block *in, Block *inout, uint64_t row0,
                         size_t count, LpnEncodeScratch &scratch) const
{
    if (scratch.idx.size() < kRowsPerChunk * p.d)
        scratch.idx.resize(kRowsPerChunk * p.d);
    uint32_t *idx = scratch.idx.data();
    for (size_t done = 0; done < count; done += kRowsPerChunk) {
        size_t chunk = std::min(kRowsPerChunk, count - done);
        rowIndicesBatch(row0 + done, chunk, idx, scratch);
        for (size_t r = 0; r < chunk; ++r) {
            Block acc = inout[done + r];
            const uint32_t *row_idx = &idx[r * p.d];
            for (unsigned i = 0; i < p.d; ++i)
                acc ^= in[row_idx[i]];
            inout[done + r] = acc;
        }
    }
}

void
LpnEncoder::encodeBlocksPool(const Block *in, Block *inout, size_t count,
                             common::ThreadPool &pool,
                             LpnEncodeScratch *scratch) const
{
    pool.parallelFor(count, [&](int worker, size_t lo, size_t hi) {
        encodeBlocks(in, inout + lo, lo, hi - lo, scratch[worker]);
    });
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
            rowIndicesBatch(row0, cnt, sc.idx.data(), sc);
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
LpnEncoder::encodeBlocksTapePool(const Block *in, Block *inout,
                                 size_t count, const LpnIndexTape &tape,
                                 common::ThreadPool &pool) const
{
    pool.parallelFor(count, [&](int, size_t lo, size_t hi) {
        encodeBlocksTape(in, inout + lo, lo, hi - lo, tape);
    });
}

void
LpnEncoder::encodeBits(const BitVec &in, BitVec &inout,
                       LpnEncodeScratch &scratch) const
{
    IRONMAN_CHECK(in.size() == p.k && inout.size() == p.n);
    if (scratch.idx.size() < kRowsPerChunk * p.d)
        scratch.idx.resize(kRowsPerChunk * p.d);
    uint32_t *idx = scratch.idx.data();
    for (size_t done = 0; done < p.n; done += kRowsPerChunk) {
        size_t chunk = std::min(kRowsPerChunk, p.n - done);
        rowIndicesBatch(done, chunk, idx, scratch);
        for (size_t r = 0; r < chunk; ++r) {
            bool acc = inout.get(done + r);
            for (unsigned i = 0; i < p.d; ++i)
                acc ^= in.get(idx[r * p.d + i]);
            inout.set(done + r, acc);
        }
    }
}

void
LpnEncoder::encodeBitsTape(const BitVec &in, BitVec &inout,
                           const LpnIndexTape &tape) const
{
    IRONMAN_CHECK(in.size() == p.k && inout.size() == p.n);
    IRONMAN_CHECK(tape.ready() && tape.builtFor == p &&
                      tape.rows >= p.n,
                  "tape too short for bit encode");
    activeBitKernel()(in.rawWords().data(), inout.rawWords().data(),
                      tape.idx.data(), p.n, p.d);
}

} // namespace ironman::ot
