#include "ot/ferret.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "ot/spcot.h"

namespace ironman::ot {

namespace {

/**
 * Engine phases are traced on every Nth extension only: a saturated
 * reservoir extends continuously and per-phase spans for all of them
 * would wash the per-request timeline out of the bounded rings. The
 * phase Timers already run for the stats ledger, so a sampled span is
 * just one extra ring write re-using their duration.
 */
constexpr uint64_t kTracePhaseSampleEvery = 4;

bool
sampleThisExtension()
{
    if (!trace::enabled())
        return false;
    static std::atomic<uint64_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed) %
               kTracePhaseSampleEvery ==
           0;
}

/** Span with explicit duration ending now (the Timer's phase). */
void
phaseSpan(bool sampled, const char *name, uint64_t dur_us,
          uint64_t arg = 0)
{
    if (sampled)
        trace::emitSpan(name, "engine", trace::nowUs() - dur_us, dur_us,
                        0, arg);
}

/**
 * Copy rows [lo, hi) of the SPCOT output from the leaf slot of @p ws
 * (bucket b of the rows is the first b.width leaves of tree b, at the
 * stride SPCOT expanded them with) to @p dst, which receives row lo.
 */
void
scatterRows(const FerretParams &p, const OtWorkspace &ws, Block *dst,
            size_t lo, size_t hi)
{
    const size_t bucket = p.bucketSize();
    const size_t leaves = ws.spcot.shape.leaves;
    const Block *leaf = ws.leaf.data();
    while (lo < hi) {
        const size_t tr = lo / bucket;
        const size_t width = std::min((tr + 1) * bucket, hi) - lo;
        dst = std::copy_n(leaf + tr * leaves + (lo - tr * bucket), width,
                          dst);
        lo += width;
    }
}

/**
 * Pool-parallel bit encode ws.x ^= ws.e * A of rows [0, rows), split
 * on 64-row words so every worker owns whole words of ws.x.
 */
void
encodeBitsPrefix(const LpnEncoder &enc, OtWorkspace &ws, size_t rows)
{
    ws.pool.parallelFor((rows + 63) / 64, [&](int, size_t wlo, size_t whi) {
        const size_t row0 = wlo * 64;
        enc.encode(ws.tape.get(), row0, std::min(whi * 64, rows) - row0,
                   nullptr, nullptr, &ws.e, &ws.x);
    });
}

/**
 * The receiver's LPN over rows [lo, hi): block encode y ^= s * A in
 * place at @p y (which holds row lo), and bit encode ws.x ^= ws.e * A
 * on the rows at or above @p split (a multiple of 64;
 * encodeBitsPrefix did the rows below). Without a tape, each 64-row
 * block's indices are generated once for both encodes.
 */
void
encodeRecvRange(const LpnEncoder &enc, OtWorkspace &ws, const Block *s,
                Block *y, size_t lo, size_t hi, size_t split)
{
    const size_t mid = std::clamp(split, lo, hi);
    enc.encode(ws.tape.get(), lo, mid - lo, s, y, nullptr, nullptr);
    enc.encode(ws.tape.get(), mid, hi - mid, s, y + (mid - lo), &ws.e,
               &ws.x);
}

} // namespace

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

FerretCotSender::FerretCotSender(net::Channel &channel,
                                 const FerretParams &params,
                                 const Block &delta,
                                 std::vector<Block> base)
    : ch(&channel), p(params), delta_(delta), baseQ(std::move(base)),
      encoder(lpnParamsOf(params))
{
    IRONMAN_CHECK(baseQ.size() >= p.reservedCots(),
                  "need k + t*log2(l) base COTs");
}

FerretCotSender::FerretCotSender(const FerretParams &params)
    : p(params), encoder(lpnParamsOf(params))
{
}

void
FerretCotSender::resetSession(net::Channel &channel, const Block &delta,
                              const Block *base, size_t n)
{
    IRONMAN_CHECK(n >= p.reservedCots(),
                  "need k + t*log2(l) base COTs");
    ch = &channel;
    delta_ = delta;
    baseQ.assign(base, base + n);
    // A prefetched transcript of the previous session (if any) is
    // abandoned with its session: the new base reserve replaces the
    // material it was derandomized against.
    tweak = 1;
    havePending = false;
}

void
FerretCotSender::prewarm()
{
    ws.prepare(p, threads);
    baseQ.reserve(p.reservedCots());
    baseNext.reserve(p.reservedCots());
}

void
FerretCotSender::extendInto(Rng &rng, Block *out)
{
    Timer total;
    const bool traced = sampleThisExtension();
    IRONMAN_CHECK(ch && baseQ.size() >= p.reservedCots(),
                  "engine not bound to a session (resetSession)");
    ws.prepare(p, threads);
    const SpcotConfig cfg = spcotConfigOf(p);
    const size_t spcot_cots = p.t * p.cotsPerTree();
    const size_t reserved = p.k + spcot_cots;
    uint64_t prg_ops = 0;

    // Steady state. The leaf slot holds this iteration's
    // already-expanded leaves (prefetched by the previous call); the
    // cold first call exchanges its own transcript inline.
    Timer phase;
    if (!havePending)
        spcotSendTranscript(*ch, cfg, p.t, delta_, baseQ.data() + p.k,
                            rng, tweak, ws.pool, ws.spcot,
                            ws.leaf.data(), &prg_ops);

    // Encode the reserve prefix eagerly, in place in the next reserve —
    // the next transcript's chosen-OT pads need q' = z[k..reserved).
    // The tail's leaves are scattered into the caller's output, which
    // empties the leaf slot for the next transcript (lpn_prefix_us
    // includes that scatter).
    phase.reset();
    const Block *lpn_r = baseQ.data();
    baseNext.resize(reserved);
    Block *z = baseNext.data();
    ws.pool.parallelFor(reserved, [&](int, size_t lo, size_t hi) {
        scatterRows(p, ws, z + lo, lo, hi);
        encoder.encode(ws.tape.get(), lo, hi - lo, lpn_r, z + lo, nullptr,
                       nullptr);
    });
    ws.pool.parallelFor(p.n - reserved, [&](int, size_t lo, size_t hi) {
        scatterRows(p, ws, out + lo, reserved + lo, reserved + hi);
    });
    const uint64_t lpn_prefix_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_prefix_us", lpn_prefix_us);
    phaseSpan(traced, "lpn_prefix", lpn_prefix_us, reserved);

    // Iteration i+1's SPCOT transcript, expanded on the whole pool
    // (the partition never changes the bits). It needs only the
    // prefix's bootstrap reserve; the receiver sends its choices right
    // after its own prefix, so the wait for them is short.
    // Stage-handoff invariant: the transcript overwrites the leaf
    // slot, which the prefix pass above has emptied.
    uint64_t prefetch_ops = 0;
    phase.reset();
    spcotSendTranscript(*ch, cfg, p.t, delta_, baseNext.data() + p.k,
                        rng, tweak, ws.pool, ws.spcot, ws.leaf.data(),
                        &prefetch_ops);
    const uint64_t spcot_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("spcot_us", spcot_us);
    phaseSpan(traced, "spcot_transcript", spcot_us, prefetch_ops);

    // The output tail, encoded in place in the caller's buffer.
    phase.reset();
    ws.pool.parallelFor(p.n - reserved, [&](int, size_t lo, size_t hi) {
        encoder.encode(ws.tape.get(), reserved + lo, hi - lo, lpn_r,
                       out + lo, nullptr, nullptr);
    });
    const uint64_t lpn_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_us", lpn_us);
    phaseSpan(traced, "lpn_encode", lpn_us, p.n);

    baseQ.swap(baseNext);
    havePending = true;

    stats_.add("spcot_prg_ops", prg_ops + prefetch_ops);
    stats_.add("extend_us", uint64_t(total.seconds() * 1e6));
    stats_.add("extensions", 1);
    stats_.add("output_cots", p.n - reserved);
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

FerretCotReceiver::FerretCotReceiver(net::Channel &channel,
                                     const FerretParams &params,
                                     BitVec base_choice,
                                     std::vector<Block> base_t)
    : ch(&channel), p(params), baseChoice(std::move(base_choice)),
      baseT(std::move(base_t)), encoder(lpnParamsOf(params))
{
    IRONMAN_CHECK(baseT.size() >= p.reservedCots() &&
                      baseChoice.size() == baseT.size(),
                  "need k + t*log2(l) base COTs");
}

FerretCotReceiver::FerretCotReceiver(const FerretParams &params)
    : p(params), encoder(lpnParamsOf(params))
{
}

void
FerretCotReceiver::resetSession(net::Channel &channel,
                                const BitVec &base_choice,
                                const Block *base_t, size_t n)
{
    IRONMAN_CHECK(n >= p.reservedCots() && base_choice.size() >= n,
                  "need k + t*log2(l) base COTs");
    ch = &channel;
    baseChoice.assignRange(base_choice, 0, n);
    baseT.assign(base_t, base_t + n);
    // Abandon any prefetched transcript of the previous session.
    tweak = 1;
    havePending = false;
    slotCur = 0;
}

void
FerretCotReceiver::prewarm()
{
    ws.prepare(p, threads);
    baseT.reserve(p.reservedCots());
    baseTNext.reserve(p.reservedCots());
}

void
FerretCotReceiver::extendInto(Rng &rng, BitVec &choice_out, Block *t_out)
{
    Timer total;
    const bool traced = sampleThisExtension();
    IRONMAN_CHECK(ch && baseT.size() >= p.reservedCots(),
                  "engine not bound to a session (resetSession)");
    ws.prepare(p, threads);
    const SpcotConfig cfg = spcotConfigOf(p);
    const size_t bucket = p.bucketSize();
    const size_t spcot_cots = p.t * p.cotsPerTree();
    const size_t reserved = p.k + spcot_cots;
    uint64_t prg_ops = 0;

    auto draw_alphas = [&] {
        for (size_t tr = 0; tr < p.t; ++tr) {
            size_t row0 = tr * bucket;
            size_t width = std::min(bucket, p.n - row0);
            ws.alphas[tr] = rng.nextBelow(width);
        }
    };

    // Steady state. slots[slotCur] holds this iteration's
    // transcript (ciphertexts + masked sums), pulled off the wire by
    // the previous call; only the unmask — which needs this call's
    // now-complete base reserve — and the tree reconstruction remain.
    ws.spcot.prepare(cfg, p.t, ws.pool.threads(), /*for_sender=*/false);
    SpcotRecvSlot *slot = &ws.spcot.slots[slotCur];

    Timer phase;
    if (!havePending) {
        draw_alphas();
        spcotRecvSendChoices(*ch, cfg, p.t, ws.alphas.data(), baseChoice,
                             p.k, tweak, ws.spcot, *slot);
        spcotRecvRecvTranscript(*ch, cfg, p.t, ws.spcot, *slot);
    }
    spcotRecvFinish(cfg, p.t, baseT.data() + p.k, ws.pool, ws.spcot,
                    *slot, ws.leaf.data(), &prg_ops);
    const uint64_t spcot_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("spcot_us", spcot_us);
    stats_.add("spcot_prg_ops", prg_ops);
    phaseSpan(traced, "spcot_finish", spcot_us, prg_ops);

    // Bit-LPN prefix first: the next transcript's derandomization bits
    // are x[k, reserved) of x = e*A ^ u, so only the rows below
    // split (reserved rounded up to whole 64-row words) are encoded
    // before the choices go out.
    phase.reset();
    const size_t split = std::min(p.n, (reserved + 63) / 64 * 64);
    ws.e.assignRange(baseChoice, 0, p.k);
    ws.x.resize(p.n);
    ws.x.zeroAll();
    for (size_t tr = 0; tr < p.t; ++tr)
        ws.x.set(tr * bucket + slot->alphas[tr], true);
    encodeBitsPrefix(encoder, ws, split);
    const uint64_t lpn_prefix_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_prefix_us", lpn_prefix_us);
    phaseSpan(traced, "lpn_prefix", lpn_prefix_us, split);

    // Prefetch iteration i+1: choices out, then one pass over all rows
    // starts on the workers — leaf scatter, block LPN in place and the
    // bit-LPN above split — while this thread reads the returning
    // ciphertexts; the calling thread joins the pass once its wire
    // stage returns. Chunks start on 64-row words, so each owns whole
    // words of x; a chunk splits at reserved, below which its rows land
    // in the next reserve and above which in t_out. Stage-handoff
    // invariant: the next transcript fills slots[slotCur^1] while the
    // LPN stage still reads slots[slotCur]'s alphas (and nothing else
    // of it).
    SpcotRecvSlot *next_slot = &ws.spcot.slots[slotCur ^ 1];
    draw_alphas();
    spcotRecvSendChoices(*ch, cfg, p.t, ws.alphas.data(), ws.x, p.k,
                         tweak, ws.spcot, *next_slot);

    phase.reset();
    const Block *lpn_s = baseT.data();
    baseTNext.resize(reserved);
    auto encode_part = [&](size_t lo, size_t hi, Block *y) {
        scatterRows(p, ws, y, lo, hi);
        encodeRecvRange(encoder, ws, lpn_s, y, lo, hi, split);
    };
    auto encode_rows = [&](int, size_t lo, size_t hi) {
        const size_t mid = std::clamp(reserved, lo, hi);
        if (lo < mid)
            encode_part(lo, mid, baseTNext.data() + lo);
        if (mid < hi)
            encode_part(mid, hi, t_out + (mid - reserved));
    };
    ws.pool.parallelForAsync(p.n, encode_rows);
    spcotRecvRecvTranscript(*ch, cfg, p.t, ws.spcot, *next_slot);
    ws.pool.wait();
    const uint64_t lpn_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_us", lpn_us);
    phaseSpan(traced, "lpn_encode", lpn_us, p.n);

    // Bootstrap + output.
    baseT.swap(baseTNext);
    choiceNext.assignRange(ws.x, 0, reserved);
    std::swap(baseChoice, choiceNext);
    choice_out.assignRange(ws.x, reserved, p.n - reserved);

    slotCur ^= 1;
    havePending = true;

    stats_.add("extend_us", uint64_t(total.seconds() * 1e6));
    stats_.add("extensions", 1);
    stats_.add("output_cots", p.n - reserved);
}

} // namespace ironman::ot
