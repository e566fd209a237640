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
 * runtime-dispatched like the AES engines). Every encode goes through
 * one walk (LpnEncoder::encode) that hands those kernels a
 * lane-transposed tape from one of two sources:
 *
 *  - LpnIndexTape, built once per parameter set per process
 *    (sharedLpnTape): the matrix is fixed by the public seed, so every
 *    extension of every engine of that set replays the same read-only
 *    tape. The tape is the generator's 64-row mini-tapes laid end to
 *    end, and the walk runs the kernels once over the whole range.
 *    Sets whose tape would exceed kLpnTapeBytesCap get none;
 *  - no tape: the walk regenerates the indices of 64 rows at a time
 *    on the stack — one AES batch, an exact multiply-shift `% k` —
 *    and runs the kernels on each 64-row mini-tape. The 2^23+ sets
 *    run this way. A block + bit encode feeds each mini-tape to both
 *    kernels, so the FERRET receiver generates each row's indices
 *    once.
 *
 * The encoder itself is immutable and shareable across threads; the
 * tape is read-only after build and shared by every engine of its set.
 */

#ifndef IRONMAN_OT_LPN_H
#define IRONMAN_OT_LPN_H

#include <compare>
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

    auto operator<=>(const LpnParams &) const = default;
};

/** Empty: nothing reads it. bench/ledger's calls still name it. */
struct LpnEncodeScratch
{
};

/** Index tapes above this size are not built (the 2^23+ sets). */
constexpr size_t kLpnTapeBytesCap = size_t(256) << 20;

/**
 * Precomputed, lane-transposed index tape covering rows [0, rows).
 *
 * Rows are stored in groups of kLane: the i-th index of row r lives at
 * idx[((r / kLane) * d + i) * kLane + (r % kLane)]. So rows [b, b+64)
 * (b % 64 == 0) are one 64-row mini-tape at idx + b*d, and a SIMD
 * kernel processing one group reads each tap's kLane indices as one
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
     * generator as encode() and buildTape().
     */
    void rowIndicesBatch(uint64_t row0, size_t count,
                         uint32_t *out) const;

    /**
     * Gather-XOR rows [row0, row0+count): the block half
     * inout[j] ^= XOR_{i<d} in[idx(j,i)] (@p inout points at row
     * row0) and the bit half, the same with bits of @p bits_in into
     * bit j of @p bits_inout. Either half may be null; the bit half
     * needs row0 % 64 == 0, so concurrent calls on 64-row aligned
     * parts own whole output words. The indices come from @p tape
     * when given (it must cover the rows), else they are regenerated
     * 64 rows at a time on the stack and fed to both halves. Output is
     * identical either way. Stateless and allocation-free.
     */
    void encode(const LpnIndexTape *tape, uint64_t row0, size_t count,
                const Block *in, Block *inout, const BitVec *bits_in,
                BitVec *bits_inout) const;

    /**
     * Build the lane-transposed index tape for rows [0, rows),
     * fanning 64-row blocks out over @p pool. Deterministic regardless
     * of the worker count. Always rebuilds; engines get their tape
     * from sharedLpnTape(). The scratch argument is ignored.
     */
    void buildTape(LpnIndexTape &tape, size_t rows,
                   common::ThreadPool &pool,
                   LpnEncodeScratch * = nullptr) const;

    /// @name Forwards to encode(), kept for bench/ledger's kernel timings
    /// @{
    void
    encodeBlocks(const Block *in, Block *inout, uint64_t row0,
                 size_t count, LpnEncodeScratch &) const
    {
        encode(nullptr, row0, count, in, inout, nullptr, nullptr);
    }
    void
    encodeBlocksTape(const Block *in, Block *inout, uint64_t row0,
                     size_t count, const LpnIndexTape &tape) const
    {
        encode(&tape, row0, count, in, inout, nullptr, nullptr);
    }
    void
    encodeBitsTape(const BitVec &in, BitVec &inout,
                   const LpnIndexTape &tape) const
    {
        encode(&tape, 0, p.n, nullptr, nullptr, &in, &inout);
    }
    /// @}

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

    /**
     * The one walk over rows [row0, row0+count): calls
     * fn(t, base, lo, hi) with a lane-transposed tape @p t whose first
     * row is @p base and which covers rows [lo, hi). With @p tape that
     * is one call over the whole range (base 0); without, one call per
     * 64-row block on a stack mini-tape (base the block's first row).
     */
    template <typename Fn>
    void walk(const LpnIndexTape *tape, uint64_t row0, size_t count,
              Fn &&fn) const;

    LpnParams p;
    crypto::Aes128 aes; ///< keyed by the public seed
    detail::FastMod mod;
};

/**
 * The process's one index tape for @p enc's params, covering all
 * n rows: the live tape when some holder still keeps one, else a tape
 * built now on @p pool. Null, without taking the registry lock, when
 * the tape would exceed kLpnTapeBytesCap: those sets regenerate their
 * indices. Thread-safe.
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
sharedLpnTape(const LpnEncoder &enc, common::ThreadPool &pool);

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
