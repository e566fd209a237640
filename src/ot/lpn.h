/**
 * @file
 * LPN encoding (Sec. 2.3.2): the local linear expansion of PCG-style
 * OTE.
 *
 * The code matrix A is n x k over GF(2) with exactly d = 10 non-zeros
 * per row (a d-local linear code, as in Ferret). Row j's indices are a
 * deterministic public function of (seed, j) generated by AES in
 * counter mode — routed through the unified SeedExpander interface —
 * so:
 *   - both parties derive identical matrices with zero communication,
 *   - the matrix never needs to be materialized (it can stream), and
 *   - benches can regenerate the exact access pattern the NMP
 *     simulator replays.
 *
 * Encoding (z = r*A ^ w etc.) is a gather-XOR: for each output row,
 * XOR the d randomly indexed 128-bit entries of the length-k input
 * into the SPCOT output. This is the memory-bandwidth-bound kernel the
 * paper accelerates with near-memory processing.
 *
 * Two encode paths exist:
 *
 *  - the streaming path regenerates indices per kRowsPerChunk chunk
 *    through an LpnEncodeScratch (AES index tape on the fly);
 *  - the tape path consumes a precomputed LpnIndexTape — the index
 *    unpack and the `% k` reduction happen exactly once, at build
 *    time, in a lane-transposed layout that feeds the SIMD gather-XOR
 *    kernels (SSE2 baseline, AVX2 runtime-dispatched like the AES
 *    engines). This is what the FERRET steady state uses: the matrix
 *    is fixed per engine, so every extension replays the tape.
 *
 * The encoder itself is immutable and shareable across threads — each
 * thread brings its own scratch; the tape is read-only after build.
 */

#ifndef IRONMAN_OT_LPN_H
#define IRONMAN_OT_LPN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/thread_pool.h"
#include "crypto/seed_expander.h"

namespace ironman::ot {

/** Parameters of one LPN code instance. */
struct LpnParams
{
    size_t n = 0;        ///< output length (rows of A)
    size_t k = 0;        ///< input length (columns of A)
    unsigned d = 10;     ///< non-zeros per row
    uint64_t seed = 0;   ///< public seed fixing A

    bool
    operator==(const LpnParams &o) const
    {
        return n == o.n && k == o.k && d == o.d && seed == o.seed;
    }
};

/**
 * Per-thread scratch of the LPN encoder: the index-tape expander plus
 * the index/counter staging buffers. Grow-only; one instance per
 * thread (the expander carries mutable state).
 */
struct LpnEncodeScratch
{
    std::unique_ptr<crypto::SeedExpander> gen; ///< lazily bound to a seed
    uint64_t genSeed = 0;                      ///< seed gen was built for
    std::vector<Block> seeds;                  ///< row seed blocks
    std::vector<Block> ks;                     ///< expanded keystream
    std::vector<uint32_t> idx;                 ///< per-chunk indices
};

/**
 * Precomputed, lane-transposed index tape covering rows [0, rows).
 *
 * Rows are stored in groups of kLane: the i-th index of row r lives at
 * idx[((r / kLane) * d + i) * kLane + (r % kLane)], so a SIMD kernel
 * processing one group reads each tap's kLane indices as one
 * contiguous 32-byte line and keeps kLane independent XOR
 * accumulators in flight. Built once per engine (the matrix is fixed
 * by the public seed); read-only and shareable afterwards.
 */
struct LpnIndexTape
{
    static constexpr size_t kLane = 8;

    std::vector<uint32_t> idx;
    size_t rows = 0;
    LpnParams builtFor{}; ///< params (incl. weight d) the tape encodes

    bool ready() const { return rows > 0; }

    /** Bytes a tape for @p rows rows of weight @p d occupies. */
    static size_t
    bytesFor(size_t rows, unsigned d)
    {
        size_t groups = (rows + kLane - 1) / kLane;
        return groups * d * kLane * sizeof(uint32_t);
    }
};

/**
 * Gather-XOR kernel selection. Auto dispatches on CPUID alone: the
 * AVX2 vinserti128 kernel when the CPU has AVX2, else SSE2, else the
 * scalar walk — no timing, so every process of a host picks the same
 * kernel. Scalar and Sse2 pin the narrower kernels Auto passes over
 * (tests, per-kernel benches); Sse2 falls back to Auto off x86.
 */
enum class LpnKernel
{
    Auto,
    Scalar, ///< scalar tape walk
    Sse2,   ///< 8-accumulator SSE2 kernel
};

/** Streaming generator + encoder for the d-local code. */
class LpnEncoder
{
  public:
    explicit LpnEncoder(const LpnParams &params);

    const LpnParams &params() const { return p; }

    /**
     * Column indices of row @p row (exactly d entries, values < k).
     * Deterministic and random-access. Convenience path: allocates
     * internal scratch, so keep it off the hot loop.
     */
    void rowIndices(uint64_t row, uint32_t *out) const;

    /**
     * Generate indices for rows [row0, row0+count) into @p out
     * (count*d entries, row-major). Allocation-free given a warm
     * scratch; batched AES keeps this off the critical path.
     */
    void rowIndicesBatch(uint64_t row0, size_t count, uint32_t *out,
                         LpnEncodeScratch &scratch) const;

    /**
     * Block-vector encode: inout[j] ^= XOR_{i<d} in[idx(j,i)] for the
     * @p count rows starting at @p row0. `inout` points at the rows
     * being produced (pre-filled with the SPCOT contribution).
     * Streaming path — indices are regenerated chunk by chunk.
     */
    void encodeBlocks(const Block *in, Block *inout, uint64_t row0,
                      size_t count, LpnEncodeScratch &scratch) const;

    /**
     * Build the lane-transposed index tape for rows [0, rows),
     * fanning index generation out over @p pool (one scratch per
     * worker). Deterministic regardless of the worker count.
     */
    void buildTape(LpnIndexTape &tape, size_t rows,
                   common::ThreadPool &pool,
                   LpnEncodeScratch *scratch) const;

    /**
     * Tape path of encodeBlocks(): gather-XOR rows [row0, row0+count)
     * using the precomputed indices. Stateless and allocation-free —
     * safe to call concurrently from any partition of the row range.
     * Dispatches to the widest SIMD kernel the CPU supports.
     */
    void encodeBlocksTape(const Block *in, Block *inout, uint64_t row0,
                          size_t count, const LpnIndexTape &tape) const;

    /** Bit-vector encode: inout[j] ^= XOR_{i<d} in[idx(j,i)]. */
    void encodeBits(const BitVec &in, BitVec &inout,
                    LpnEncodeScratch &scratch) const;

    /**
     * Tape path of encodeBits() (rows [0, p.n)): word-at-a-time over
     * the lane-transposed tape — one result byte per 8-row lane group
     * instead of per-bit get/set, with an AVX2 vpgatherdd/vpsrlvd
     * kernel behind the same runtime dispatch as the block path.
     */
    void encodeBitsTape(const BitVec &in, BitVec &inout,
                        const LpnIndexTape &tape) const;

    /**
     * Pin the gather-XOR kernels (block and bit) for all encoders;
     * LpnKernel::Auto restores per-CPU dispatch. Mirrors
     * Aes128::forceSoftware.
     */
    static void setKernel(LpnKernel kernel);

    /** Scalar-vs-SIMD test hook: Scalar when @p force, else Auto. */
    static void forceScalarKernel(bool force);

    /** Name of the block kernel Auto currently resolves to (bench). */
    static const char *activeKernelName();

    /** AES invocations needed per row of index generation. */
    static constexpr unsigned aesCallsPerRow = 3;

  private:
    LpnParams p;
};

namespace detail {

/** Always false; kept because bench/ledger reads it for the host. */
inline bool lpnPrefetchEnabled() { return false; }

/** AVX2 gather-XOR entry points (lpn_avx2.cpp, built with -mavx2). */
bool lpnAvx2Supported();
void lpnGatherXorAvx2(const Block *in, Block *inout, const uint32_t *tape,
                      size_t row0, size_t count, unsigned d);
void lpnBitGatherXorAvx2(const uint64_t *in_words, uint64_t *inout_words,
                         const uint32_t *tape, size_t rows, unsigned d);

} // namespace detail

} // namespace ironman::ot

#endif // IRONMAN_OT_LPN_H
