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

LpnParams
lpnParamsOf(const FerretParams &p)
{
    LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    return lp;
}

SpcotConfig
spcotConfigOf(const FerretParams &p)
{
    SpcotConfig cfg;
    cfg.numLeaves = p.treeLeaves();
    cfg.arity = p.arity;
    cfg.prg = p.prg;
    return cfg;
}

/**
 * Encode rows [row0, row0+count) through the tape when one is built,
 * falling back to the streaming scratch path (2^23+ sets, above the
 * tape memory cap). Output is identical either way.
 */
void
encodeRange(const LpnEncoder &enc, OtWorkspace &ws, const Block *in,
            Block *inout, size_t row0, size_t count, int scratch_idx)
{
    if (ws.tape.ready())
        enc.encodeBlocksTape(in, inout, row0, count, ws.tape);
    else
        enc.encodeBlocks(in, inout, row0, count, ws.lpn[scratch_idx]);
}

/** Pool-parallel encodeRange over rows [row0, row0+count). */
void
encodePooled(const LpnEncoder &enc, OtWorkspace &ws, const Block *in,
             Block *inout, size_t row0, size_t count)
{
    ws.pool.parallelFor(count, [&](int worker, size_t lo, size_t hi) {
        encodeRange(enc, ws, in, inout + lo, row0 + lo, hi - lo, worker);
    });
}

/**
 * Build the engine's index tape unless the set is above the memory
 * cap (2^23+, which stays on the streaming path). Idempotent; shared
 * by both endpoints so the cap policy lives in one place.
 */
void
ensureTapeFor(const FerretParams &p, const LpnEncoder &enc,
              OtWorkspace &ws)
{
    if (LpnIndexTape::bytesFor(p.n, p.lpnWeight) <=
        OtWorkspace::kLpnTapeBytesCap)
        enc.buildTape(ws.tape, p.n, ws.pool, ws.lpn.data());
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
    slotCur = 0;
}

void
FerretCotSender::prewarm()
{
    const bool sf = scatterFree_ && OtWorkspace::scatterFreeFeed(p);
    ws.prepare(p, threads, 2, sf);
    ensureTape();
    baseQ.reserve(p.reservedCots());
    baseNext.reserve(p.reservedCots());
}

void
FerretCotSender::ensureTape()
{
    ensureTapeFor(p, encoder, ws);
}

void
FerretCotSender::extendInto(Rng &rng, Block *out)
{
    Timer total;
    const bool traced = sampleThisExtension();
    IRONMAN_CHECK(ch && baseQ.size() >= p.reservedCots(),
                  "engine not bound to a session (resetSession)");
    // Scatter-free feed: every bucket is one whole tree, so SPCOT
    // writes straight into the LPN row slots and the leaf -> rows
    // pass disappears (the arena aliases rows onto the leaf slots).
    // The feed must not flip while a prefetched transcript occupies a
    // slot (prepare() re-carves).
    const bool sf = scatterFree_ && OtWorkspace::scatterFreeFeed(p);
    IRONMAN_CHECK(!havePending || ws.scatterFree() == sf,
                  "setScatterFree with a transcript in flight");
    ws.prepare(p, threads, 2, sf);
    ensureTape();
    const SpcotConfig cfg = spcotConfigOf(p);
    const size_t bucket = p.bucketSize();
    const size_t leaves = p.treeLeaves();
    const size_t spcot_cots = p.t * p.cotsPerTree();
    const size_t reserved = p.k + spcot_cots;
    uint64_t prg_ops = 0;

    // Steady state. Slot slotCur holds this iteration's
    // already-expanded leaves (prefetched by the previous call); the
    // cold first call exchanges its own transcript inline.
    Timer phase;
    if (!havePending)
        spcotSendTranscript(*ch, cfg, p.t, delta_, baseQ.data() + p.k,
                            rng, tweak, &ws.pool, ws.spcot,
                            ws.leaf[slotCur], &prg_ops);

    // Scatter the pending leaves (scatter-free: slot slotCur already
    // IS the row vector), then encode the reserve prefix eagerly —
    // the next transcript's chosen-OT pads need q' = z[k..reserved).
    phase.reset();
    Block *z = sf ? ws.leaf[slotCur] : ws.rows;
    const Block *lpn_r = baseQ.data();
    if (!sf)
        for (size_t tr = 0; tr < p.t; ++tr) {
            size_t row0 = tr * bucket;
            size_t width = std::min(bucket, p.n - row0);
            std::copy_n(ws.leaf[slotCur] + tr * leaves, width, z + row0);
        }
    encodePooled(encoder, ws, lpn_r, z, 0, reserved);
    baseNext.assign(z, z + reserved);
    const uint64_t lpn_prefix_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_prefix_us", lpn_prefix_us);
    phaseSpan(traced, "lpn_prefix", lpn_prefix_us, reserved);

    // Hand the output tail to the pool workers and, while they
    // gather-XOR, push iteration i+1's SPCOT transcript from this
    // thread (expansion runs serially here — the pool is busy; the
    // partition never changes the bits). Stage-handoff invariant:
    // slot slotCur is free (scattered above), the transcript writes
    // slot slotCur^1.
    phase.reset();
    auto encode_tail = [&](int worker, size_t lo, size_t hi) {
        encodeRange(encoder, ws, lpn_r, z + reserved + lo,
                    reserved + lo, hi - lo, worker);
    };
    ws.pool.parallelForAsync(p.n - reserved, encode_tail);

    const int next = slotCur ^ 1;
    uint64_t prefetch_ops = 0;
    Timer spcot_timer;
    spcotSendTranscript(*ch, cfg, p.t, delta_, baseNext.data() + p.k,
                        rng, tweak, /*pool=*/nullptr, ws.spcot,
                        ws.leaf[next], &prefetch_ops);
    const uint64_t spcot_us = uint64_t(spcot_timer.seconds() * 1e6);
    stats_.add("spcot_us", spcot_us);
    phaseSpan(traced, "spcot_transcript", spcot_us, prefetch_ops);

    ws.pool.wait();
    const uint64_t lpn_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_us", lpn_us);
    phaseSpan(traced, "lpn_encode", lpn_us, p.n);
    std::copy(z + reserved, z + p.n, out);

    baseQ.swap(baseNext);
    slotCur = next;
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
    const bool sf = scatterFree_ && OtWorkspace::scatterFreeFeed(p);
    ws.prepare(p, threads, 1, sf);
    ensureTape();
    baseT.reserve(p.reservedCots());
    baseTNext.reserve(p.reservedCots());
}

void
FerretCotReceiver::ensureTape()
{
    ensureTapeFor(p, encoder, ws);
}

void
FerretCotReceiver::extendInto(Rng &rng, BitVec &choice_out, Block *t_out)
{
    Timer total;
    const bool traced = sampleThisExtension();
    IRONMAN_CHECK(ch && baseT.size() >= p.reservedCots(),
                  "engine not bound to a session (resetSession)");
    // See the sender: scatter-free aliases the single leaf slot onto
    // the row vector, so reconstruction writes y directly.
    const bool sf = scatterFree_ && OtWorkspace::scatterFreeFeed(p);
    IRONMAN_CHECK(!havePending || ws.scatterFree() == sf,
                  "setScatterFree with a transcript in flight");
    ws.prepare(p, threads, 1, sf);
    ensureTape();
    const SpcotConfig cfg = spcotConfigOf(p);
    const size_t bucket = p.bucketSize();
    const size_t leaves = p.treeLeaves();
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

    auto encode_bits = [&](const BitVec &in, BitVec &inout) {
        if (ws.tape.ready())
            encoder.encodeBitsTape(in, inout, ws.tape);
        else
            encoder.encodeBits(in, inout, ws.lpn[0]);
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
                    *slot, ws.leaf[0], &prg_ops);
    const uint64_t spcot_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("spcot_us", spcot_us);
    stats_.add("spcot_prg_ops", prg_ops);
    phaseSpan(traced, "spcot_finish", spcot_us, prg_ops);

    // Bit-LPN first: the next transcript's derandomization bits need
    // only x = e*A ^ u.
    phase.reset();
    ws.e.assignRange(baseChoice, 0, p.k);
    ws.x.resize(p.n);
    ws.x.zeroAll();
    Block *y = sf ? ws.leaf[0] : ws.rows;
    const Block *lpn_s = baseT.data();
    for (size_t tr = 0; tr < p.t; ++tr) {
        size_t row0 = tr * bucket;
        size_t width = std::min(bucket, p.n - row0);
        if (!sf)
            std::copy_n(ws.leaf[0] + tr * leaves, width, y + row0);
        ws.x.set(row0 + slot->alphas[tr], true);
    }
    encode_bits(ws.e, ws.x);
    const uint64_t lpn_bits_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_bits_us", lpn_bits_us);
    phaseSpan(traced, "lpn_bits", lpn_bits_us, p.n);

    // Prefetch iteration i+1: choices out, then the block LPN runs on
    // the workers while this thread blocks on the returning
    // ciphertexts. Stage-handoff invariant: the next transcript fills
    // slots[slotCur^1] while the LPN stage still reads slots[slotCur]'s
    // alphas (and nothing else of it).
    SpcotRecvSlot *next_slot = &ws.spcot.slots[slotCur ^ 1];
    draw_alphas();
    spcotRecvSendChoices(*ch, cfg, p.t, ws.alphas.data(), ws.x, p.k,
                         tweak, ws.spcot, *next_slot);

    phase.reset();
    auto encode_blocks = [&](int worker, size_t lo, size_t hi) {
        encodeRange(encoder, ws, lpn_s, y + lo, lo, hi - lo, worker);
    };
    ws.pool.parallelForAsync(p.n, encode_blocks);
    spcotRecvRecvTranscript(*ch, cfg, p.t, ws.spcot, *next_slot);
    ws.pool.wait();
    const uint64_t lpn_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_us", lpn_us);
    phaseSpan(traced, "lpn_encode", lpn_us, p.n);

    // Bootstrap + output.
    baseTNext.assign(y, y + reserved);
    baseT.swap(baseTNext);
    choiceNext.assignRange(ws.x, 0, reserved);
    std::swap(baseChoice, choiceNext);

    choice_out.assignRange(ws.x, reserved, p.n - reserved);
    std::copy(y + reserved, y + p.n, t_out);

    slotCur ^= 1;
    havePending = true;

    stats_.add("extend_us", uint64_t(total.seconds() * 1e6));
    stats_.add("extensions", 1);
    stats_.add("output_cots", p.n - reserved);
}

} // namespace ironman::ot
