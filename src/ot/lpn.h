/**
 * @file
 * LPN encoding (Sec. 2.3.2): the local linear expansion of PCG-style
 * OTE.
 *
 * The code matrix A is n x k over GF(2) with exactly d = 10 non-zeros
 * per row (a d-local linear code, as in Ferret). Row j's indices are a
 * deterministic public function of (seed, j) generated by AES in
 * counter mode and reduced mod k by an exact multiply-shift, so:
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
 * One kernel family does the gather-XOR: lane-transposed index tapes
 * feed SIMD block and bit kernels (SSE2 baseline, AVX2
 * runtime-dispatched like the AES engines). The tapes come from one of
 * two places:
 *
 *  - LpnIndexTape, built once per parameter set per process
 *    (sharedLpnTape): the matrix is fixed by the public seed, so every
 *    extension of every engine of that set replays the same read-only
 *    tape. This is what the FERRET steady state uses while the tape
 *    fits OtWorkspace::kLpnTapeBytesCap;
 *  - the fused streaming kernel (encodeBlocks / encodeBits), which
 *    regenerates the indices of 64 rows at a time in registers and on
 *    the stack — one AES batch, an exact multiply-shift `% k` — and
 *    hands that 64-row mini-tape to the same kernels. The 2^23+ sets,
 *    whose tapes are above the cap, run this path.
 *    encodeBlocksAndBits feeds one mini-tape to both the block and the
 *    bit kernel, so the FERRET receiver, which encodes both vectors
 *    over the same rows, generates each row's indices once.
 *
 * The encoder itself is immutable and shareable across threads; the
 * tape is read-only after build and shared by every engine of its set.
 */

#ifndef IRONMAN_OT_LPN_H
#define IRONMAN_OT_LPN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/thread_pool.h"
#include "crypto/aes.h"

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
 * Per-thread scratch of buildTape(): row-major index staging.
 * Grow-only; one instance per thread. The streaming encoders keep
 * their indices on the stack and do not touch it.
 */
struct LpnEncodeScratch
{
    std::vector<uint32_t> idx; ///< per-chunk indices
};

/**
 * Precomputed, lane-transposed index tape covering rows [0, rows).
 *
 * Rows are stored in groups of kLane: the i-th index of row r lives at
 * idx[((r / kLane) * d + i) * kLane + (r % kLane)], so a SIMD kernel
 * processing one group reads each tap's kLane indices as one
 * contiguous 32-byte line and keeps kLane independent XOR
 * accumulators in flight. The matrix is fixed by the public seed, so
 * one tape per parameter set serves a whole process (sharedLpnTape);
 * read-only after build.
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

namespace detail {

/**
 * Exact a % k for 32-bit a and k by one multiply-shift (Lemire, Kaser
 * and Kurz, "Faster remainder by direct computation", 2019): with
 * M = 2^64 / k rounded up, a % k = ((M * a mod 2^64) * k) >> 64.
 */
struct FastMod
{
    uint64_t m;
    uint32_t k;

    explicit FastMod(uint32_t divisor)
        : m(~uint64_t(0) / divisor + 1), k(divisor)
    {
    }

    uint32_t
    operator()(uint32_t a) const
    {
        return uint32_t((unsigned __int128)(m * a) * k >> 64);
    }
};

} // namespace detail

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

/** Matrix generator + encoder for the d-local code. */
class LpnEncoder
{
  public:
    explicit LpnEncoder(const LpnParams &params);

    const LpnParams &params() const { return p; }

    /**
     * Column indices of row @p row (exactly d entries, values < k).
     * Deterministic and random-access: row r's indices are the first
     * d 32-bit words of AES_key(3r), AES_key(3r+1), AES_key(3r+2),
     * each reduced mod k. Generates a whole 64-row block, so keep it
     * off the hot loop.
     */
    void rowIndices(uint64_t row, uint32_t *out) const;

    /**
     * Generate indices for rows [row0, row0+count) into @p out
     * (count*d entries, row-major). Allocation-free; the same
     * generator as the fused kernels.
     */
    void rowIndicesBatch(uint64_t row0, size_t count,
                         uint32_t *out) const;

    /**
     * Block-vector encode: inout[j] ^= XOR_{i<d} in[idx(j,i)] for the
     * @p count rows starting at @p row0. `inout` points at the rows
     * being produced (pre-filled with the SPCOT contribution).
     * Streaming path: the fused kernel regenerates each 64-row block's
     * indices into a stack mini-tape and runs the tape kernels on it,
     * so any row0 and count work. Allocation-free; @p scratch is not
     * touched (the parameter keeps existing call sites building).
     */
    void encodeBlocks(const Block *in, Block *inout, uint64_t row0,
                      size_t count, LpnEncodeScratch &scratch) const;

    /**
     * Build the lane-transposed index tape for rows [0, rows),
     * fanning index generation out over @p pool (one scratch per
     * worker). Deterministic regardless of the worker count. Always
     * rebuilds; engines get their tape from sharedLpnTape().
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

    /**
     * Bit-vector encode of rows [row0, row0+count):
     * inout[j] ^= XOR_{i<d} in[idx(j,i)]. @p row0 must be a multiple
     * of 64, so a caller that splits the rows on those boundaries
     * gives each part whole output words, and the parts can run
     * concurrently. Streaming path: the fused kernel of encodeBlocks()
     * feeding the bit kernels. Allocation-free.
     */
    void encodeBits(const BitVec &in, BitVec &inout, size_t row0,
                    size_t count) const;

    /**
     * encodeBlocks() and encodeBits() of the same rows
     * [row0, row0+count) in one streaming pass: each 64-row block's
     * indices are generated once and fed to both kernels. Same rules
     * as encodeBits() (row0 % 64 == 0, so concurrent calls on 64-row
     * aligned parts own whole words of @p bits_inout); @p inout points
     * at row row0. Allocation-free.
     */
    void encodeBlocksAndBits(const Block *in, Block *inout,
                             const BitVec &bits_in, BitVec &bits_inout,
                             size_t row0, size_t count) const;

    /** encodeBits() over all rows [0, p.n). */
    void
    encodeBits(const BitVec &in, BitVec &inout) const
    {
        encodeBits(in, inout, 0, p.n);
    }

    /**
     * Tape path of the ranged encodeBits() (same row0 % 64 == 0
     * rule): word-at-a-time over the lane-transposed tape — one result
     * byte per 8-row lane group, with an AVX2 vpgatherdd/vpsrlvd
     * kernel behind the same runtime dispatch as the block path.
     */
    void encodeBitsTape(const BitVec &in, BitVec &inout, size_t row0,
                        size_t count, const LpnIndexTape &tape) const;

    /** encodeBitsTape() over all rows [0, p.n). */
    void
    encodeBitsTape(const BitVec &in, BitVec &inout,
                   const LpnIndexTape &tape) const
    {
        encodeBitsTape(in, inout, 0, p.n, tape);
    }

    /**
     * Pin the gather-XOR kernels (block and bit, tape and streaming
     * paths alike) for all encoders; LpnKernel::Auto restores per-CPU
     * dispatch. Mirrors Aes128::forceSoftware.
     */
    static void setKernel(LpnKernel kernel);

    /** Name of the block kernel Auto currently resolves to (bench). */
    static const char *activeKernelName();

    /** AES invocations needed per row of index generation. */
    static constexpr unsigned aesCallsPerRow = 3;

    /** Largest weight d: 3 AES calls supply 12 32-bit words. */
    static constexpr unsigned kMaxWeight = 12;

  private:
    /**
     * Lane-transposed indices of the 64 rows [row0, row0+64) into
     * @p mini (64*d entries, LpnIndexTape layout). @p row0 % 64 == 0.
     */
    void laneBlock(uint64_t row0, uint32_t *mini) const;

    LpnParams p;
    crypto::Aes128 aes; ///< keyed by the public seed
    detail::FastMod mod;
};

/**
 * The process's one index tape for @p enc's params, covering all
 * n rows: the live tape when some holder still keeps one, else a tape
 * built now on @p pool (one scratch per worker, as buildTape()).
 * Thread-safe.
 *
 * The registry keeps weak references only, so a tape lives exactly as
 * long as some caller holds it: a process that drops every engine of a
 * set pays the build again on the next one, so a set-up timed from
 * nothing still measures a build, not a cache hit.
 *
 * One registry mutex is held across the build. Concurrent first
 * callers of a set wait for that single build instead of building
 * duplicates; callers of other sets wait too, which is acceptable
 * because a build happens once per set while its holders live.
 */
std::shared_ptr<const LpnIndexTape>
sharedLpnTape(const LpnEncoder &enc, common::ThreadPool &pool,
              LpnEncodeScratch *scratch);

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
