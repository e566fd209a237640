#include "ot/spcot.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace ironman::ot {

std::vector<unsigned>
SpcotConfig::levelArities() const
{
    return treeArities(numLeaves, arity);
}

size_t
SpcotConfig::cotsPerTree() const
{
    return std::countr_zero(numLeaves);
}

namespace {

/** log2 of a power-of-two arity. */
unsigned
log2Arity(unsigned m)
{
    return std::countr_zero(m);
}

} // namespace

void
SpcotShape::prepare(const SpcotConfig &config)
{
    cfg = config;
    arities = treeArities(config.numLeaves, config.arity);
    layout = GgmSumLayout::of(arities);
    leaves = layout.leaves;

    const size_t num_levels = arities.size();
    instOffset.assign(num_levels, 0);
    sumOffset.assign(num_levels, 0);
    miniIndex.assign(num_levels, -1);
    miniLayout.assign(num_levels, GgmSumLayout{});
    cotsPerTree = 0;
    sumsPerTree = 0;
    wideLevels = 0;

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        instOffset[lvl] = uint32_t(cotsPerTree);
        sumOffset[lvl] = uint32_t(sumsPerTree);
        const unsigned m = arities[lvl];
        if (m == 2) {
            cotsPerTree += 1;
        } else {
            cotsPerTree += log2Arity(m);
            sumsPerTree += m;
            miniIndex[lvl] = int(wideLevels++);
            miniLayout[lvl] = GgmSumLayout::of(treeArities(m, 2));
        }
    }
    extraPerTree = sumsPerTree + 1; // + the final recovery block
    IRONMAN_CHECK(cotsPerTree == cfg.cotsPerTree());
}

void
SpcotWorkspace::prepare(const SpcotConfig &config, size_t num_trees,
                        int threads, bool for_sender)
{
    const bool same_cfg = ready && shape.cfg == config;
    const bool same_size = same_cfg && preparedTrees == num_trees;
    if (same_size && preparedThreads >= threads &&
        (for_sender ? senderReady : receiverReady))
        return;

    if (!same_cfg) {
        shape.prepare(config);
        workers.clear(); // expanders are bound to (prg, arity)
        preparedThreads = 0;
    }
    if (!same_size)
        senderReady = receiverReady = false;

    // The requested role's buffer set — an engine only ever plays one
    // role, so the other set stays unallocated. (Receiver transcript
    // slots grow lazily inside the stage functions.)
    const size_t n_inst = num_trees * shape.cotsPerTree;
    if (for_sender) {
        extra.resize(num_trees * shape.extraPerTree);
        seeds.resize(num_trees);
        miniSeeds.resize(num_trees * shape.wideLevels);
        otM0.resize(n_inst);
        otM1.resize(n_inst);
    } else {
        otOut.resize(n_inst);
    }

    const unsigned max_arity =
        std::max(2u, *std::max_element(shape.arities.begin(),
                                       shape.arities.end()));
    const size_t mini_total = 2 * size_t(log2Arity(max_arity));
    const size_t chunk =
        std::min<size_t>(kBatchTrees, std::max<size_t>(num_trees, 1));
    while (workers.size() < size_t(threads)) {
        workers.emplace_back();
        Worker &w = workers.back();
        w.mainPrg = crypto::makeTreeExpander(config.prg, max_arity);
        w.miniPrg = crypto::makeTreeExpander(config.prg, 2);
    }
    for (Worker &w : workers) {
        w.miniLeavesAll.resize(
            std::max<size_t>(chunk * shape.sumsPerTree, 1));
        w.hashPads.resize(
            std::max<size_t>(chunk * shape.sumsPerTree, 1));
        if (for_sender) {
            w.levelSums.resize(chunk * shape.layout.total);
            w.leafSums.resize(chunk);
            w.miniSums.resize(std::max<size_t>(chunk * mini_total, 1));
            w.miniSeedStage.resize(chunk);
        } else {
            w.knownSums.resize(chunk * shape.layout.total);
            w.miniKnown.resize(std::max<size_t>(chunk * mini_total, 1));
            w.miniAlphaStage.resize(chunk);
        }
        w.batch.reserve(chunk, shape.layout, /*staged_leaves=*/false);
        for (size_t lvl = 0; lvl < shape.arities.size(); ++lvl)
            if (shape.miniIndex[lvl] >= 0)
                w.miniBatch.reserve(chunk, shape.miniLayout[lvl],
                                    /*staged_leaves=*/true);
    }

    ready = true;
    preparedTrees = num_trees;
    preparedThreads = int(workers.size());
    (for_sender ? senderReady : receiverReady) = true;
}

uint64_t
SpcotWorkspace::prgOps() const
{
    uint64_t total = 0;
    for (const Worker &w : workers)
        total += w.mainPrg->ops() + w.miniPrg->ops();
    return total;
}

void
spcotSendTranscript(net::Channel &ch, const SpcotConfig &cfg,
                    size_t num_trees, const Block &delta, const Block *q,
                    Rng &rng, uint64_t &tweak, common::ThreadPool *pool,
                    SpcotWorkspace &ws, Block *w, uint64_t *prg_ops)
{
    ws.prepare(cfg, num_trees, pool ? pool->threads() : 1,
               /*for_sender=*/true);
    const SpcotShape &sh = ws.shape;
    const size_t num_levels = sh.arities.size();
    const size_t n_inst = num_trees * sh.cotsPerTree;
    const uint64_t sum_base = tweak + n_inst;

    // Seeds are drawn sequentially (tree seed, then that tree's mini
    // seeds in level order) so the transcript is independent of the
    // worker count.
    for (size_t tr = 0; tr < num_trees; ++tr) {
        ws.seeds[tr] = rng.nextBlock();
        for (size_t lvl = 0; lvl < num_levels; ++lvl)
            if (sh.miniIndex[lvl] >= 0)
                ws.miniSeeds[tr * sh.wideLevels +
                             size_t(sh.miniIndex[lvl])] = rng.nextBlock();
    }

    const uint64_t ops_before = ws.prgOps();

    auto expand_range = [&](int worker, size_t lo, size_t hi) {
        SpcotWorkspace::Worker &wk = ws.workers[worker];
        for (size_t batch_base = lo; batch_base < hi;
             batch_base += SpcotWorkspace::kBatchTrees) {
            const size_t cnt = std::min(SpcotWorkspace::kBatchTrees,
                                        hi - batch_base);

            // All main trees of this chunk expand level-synchronously:
            // ONE expander call per level, the final level writing
            // straight into each tree's slot of the leaf span.
            ggmExpandBatchInto(*wk.mainPrg, ws.seeds.data() + batch_base,
                               cnt, sh.layout, wk.batch,
                               w + batch_base * sh.leaves, sh.leaves,
                               wk.levelSums.data(), sh.layout.total,
                               wk.leafSums.data());

            // (m-1)-out-of-m OTs of the wide levels, from m-leaf
            // binary mini GGM trees (Sec. 4.2): one cross-tree batch
            // per level. The mini level sums ride the chosen OTs; the
            // mini leaves land in each tree's contiguous span of
            // miniLeavesAll so one batch hash below covers the whole
            // chunk.
            for (size_t lvl = 0; lvl < num_levels; ++lvl) {
                if (sh.miniIndex[lvl] < 0)
                    continue;
                const GgmSumLayout &ml = sh.miniLayout[lvl];
                for (size_t i = 0; i < cnt; ++i)
                    wk.miniSeedStage[i] =
                        ws.miniSeeds[(batch_base + i) * sh.wideLevels +
                                     size_t(sh.miniIndex[lvl])];
                ggmExpandBatchInto(
                    *wk.miniPrg, wk.miniSeedStage.data(), cnt, ml,
                    wk.miniBatch,
                    wk.miniLeavesAll.data() + sh.sumOffset[lvl],
                    sh.sumsPerTree, wk.miniSums.data(), ml.total,
                    nullptr);
                for (size_t i = 0; i < cnt; ++i) {
                    const size_t inst = (batch_base + i) * sh.cotsPerTree +
                                        sh.instOffset[lvl];
                    const Block *msums = wk.miniSums.data() + i * ml.total;
                    for (size_t j = 0; j < ml.arities.size(); ++j) {
                        ws.otM0[inst + j] = msums[ml.offset[j] + 0];
                        ws.otM1[inst + j] = msums[ml.offset[j] + 1];
                    }
                }
            }

            // One fused batch hash for the whole chunk: tree tr's
            // sumsPerTree mini leaves use the contiguous tweak range
            // starting at sum_base + tr*sumsPerTree, and chunk trees
            // are contiguous.
            if (sh.sumsPerTree > 0)
                ws.crhf.hashBatch(wk.miniLeavesAll.data(),
                                  wk.hashPads.data(),
                                  cnt * sh.sumsPerTree,
                                  sum_base + batch_base * sh.sumsPerTree);

            for (size_t i = 0; i < cnt; ++i) {
                const size_t tr = batch_base + i;
                const size_t inst_base = tr * sh.cotsPerTree;
                Block *ex = ws.extra.data() + tr * sh.extraPerTree;
                const Block *lsums =
                    wk.levelSums.data() + i * sh.layout.total;
                const Block *pads =
                    wk.hashPads.data() + i * sh.sumsPerTree;
                for (size_t lvl = 0; lvl < num_levels; ++lvl) {
                    const unsigned m = sh.arities[lvl];
                    const Block *sums = lsums + sh.layout.offset[lvl];
                    if (m == 2) {
                        const size_t inst =
                            inst_base + sh.instOffset[lvl];
                        ws.otM0[inst] = sums[0];
                        ws.otM1[inst] = sums[1];
                        continue;
                    }
                    const uint32_t so = sh.sumOffset[lvl];
                    for (unsigned c = 0; c < m; ++c)
                        ex[so + c] = sums[c] ^ pads[so + c];
                }

                // Final node recovery: Delta ^ XOR of all leaves
                // (step 4 of Fig. 3(b)).
                ex[sh.extraPerTree - 1] = wk.leafSums[i] ^ delta;
            }
        }
    };

    if (pool)
        pool->parallelFor(num_trees, expand_range);
    else
        expand_range(0, 0, num_trees);

    if (prg_ops)
        *prg_ops = ws.prgOps() - ops_before;

    chosenOtSend(ch, ws.crhf, ws.otM0.data(), ws.otM1.data(), n_inst,
                 delta, q, tweak, ws.ot);
    ch.sendBlocks(ws.extra.data(), num_trees * sh.extraPerTree);

    tweak = sum_base + num_trees * sh.sumsPerTree;
}

void
spcotRecvSendChoices(net::Channel &ch, const SpcotConfig &cfg,
                     size_t num_trees, const size_t *alphas,
                     const BitVec &b, size_t b_offset, uint64_t &tweak,
                     SpcotWorkspace &ws, SpcotRecvSlot &slot)
{
    const SpcotShape &sh = ws.shape;
    IRONMAN_CHECK(sh.cfg == cfg, "workspace prepared for other config");
    const size_t num_levels = sh.arities.size();
    const size_t n_inst = num_trees * sh.cotsPerTree;

    slot.tweakBase = tweak;
    slot.sumBase = tweak + n_inst;
    tweak = slot.sumBase + num_trees * sh.sumsPerTree;

    slot.alphas.assign(alphas, alphas + num_trees);
    slot.digits.resize(num_trees * num_levels);
    slot.choices.resize(n_inst);

    // Choice bits in traversal order: !digit for arity-2 levels,
    // !digit-bit for each mini level of wider ones.
    for (size_t tr = 0; tr < num_trees; ++tr) {
        unsigned *dg = slot.digits.data() + tr * num_levels;
        alphaDigitsInto(alphas[tr], sh.arities, dg);
        const size_t inst_base = tr * sh.cotsPerTree;
        for (size_t lvl = 0; lvl < num_levels; ++lvl) {
            const unsigned m = sh.arities[lvl];
            const unsigned digit = dg[lvl];
            const size_t inst = inst_base + sh.instOffset[lvl];
            if (m == 2) {
                slot.choices.set(inst, !(digit & 1));
            } else {
                const unsigned bits = log2Arity(m);
                for (unsigned j = 0; j < bits; ++j)
                    slot.choices.set(inst + j,
                                     !((digit >> (bits - 1 - j)) & 1));
            }
        }
    }

    // Derandomization bits out (the wire half of the chosen OT that
    // needs only base-COT choice BITS, never strings).
    chosenOtRecvSendDerand(ch, slot.choices, b, b_offset, n_inst,
                           slot.ot);
}

void
spcotRecvRecvTranscript(net::Channel &ch, const SpcotConfig &cfg,
                        size_t num_trees, SpcotWorkspace &ws,
                        SpcotRecvSlot &slot)
{
    const SpcotShape &sh = ws.shape;
    IRONMAN_CHECK(sh.cfg == cfg, "workspace prepared for other config");
    const size_t n_inst = num_trees * sh.cotsPerTree;

    chosenOtRecvCiphertexts(ch, n_inst, slot.ot);

    slot.extra.resize(num_trees * sh.extraPerTree);
    ch.recvBlocks(slot.extra.data(), num_trees * sh.extraPerTree);
}

void
spcotRecvFinish(const SpcotConfig &cfg, size_t num_trees, const Block *t,
                common::ThreadPool &pool, SpcotWorkspace &ws,
                SpcotRecvSlot &slot, Block *v, uint64_t *prg_ops)
{
    const SpcotShape &sh = ws.shape;
    IRONMAN_CHECK(sh.cfg == cfg, "workspace prepared for other config");
    const size_t num_levels = sh.arities.size();
    const size_t n_inst = num_trees * sh.cotsPerTree;

    // Unmask the chosen-OT outputs with the base-COT strings (one
    // batched hash — the strings are contiguous).
    chosenOtRecvFinish(ws.crhf, slot.choices, t, n_inst, ws.otOut.data(),
                       slot.tweakBase, slot.ot);

    const uint64_t ops_before = ws.prgOps();

    pool.parallelFor(num_trees, [&](int worker, size_t lo, size_t hi) {
        SpcotWorkspace::Worker &wk = ws.workers[worker];
        for (size_t batch_base = lo; batch_base < hi;
             batch_base += SpcotWorkspace::kBatchTrees) {
            const size_t cnt = std::min(SpcotWorkspace::kBatchTrees,
                                        hi - batch_base);

            // Pass 1a: binary levels' known sums straight from the
            // chosen-OT outputs.
            for (size_t i = 0; i < cnt; ++i) {
                const size_t tr = batch_base + i;
                const unsigned *dg = slot.digits.data() + tr * num_levels;
                const size_t inst_base = tr * sh.cotsPerTree;
                Block *ks = wk.knownSums.data() + i * sh.layout.total;
                for (size_t lvl = 0; lvl < num_levels; ++lvl) {
                    if (sh.arities[lvl] != 2)
                        continue;
                    const unsigned digit = dg[lvl];
                    Block *lk = ks + sh.layout.offset[lvl];
                    lk[digit] = Block::zero();
                    lk[digit ^ 1] =
                        ws.otOut[inst_base + sh.instOffset[lvl]];
                }
            }

            // Pass 1b: every wide level's mini trees reconstruct
            // cross-tree-batched (one expander call per mini level per
            // chunk) into each tree's contiguous mini-leaf span.
            for (size_t lvl = 0; lvl < num_levels; ++lvl) {
                if (sh.miniIndex[lvl] < 0)
                    continue;
                const GgmSumLayout &ml = sh.miniLayout[lvl];
                const unsigned bits = log2Arity(sh.arities[lvl]);
                for (size_t i = 0; i < cnt; ++i) {
                    const size_t tr = batch_base + i;
                    const unsigned digit =
                        slot.digits[tr * num_levels + lvl];
                    const size_t inst =
                        tr * sh.cotsPerTree + sh.instOffset[lvl];
                    Block *mk = wk.miniKnown.data() + i * ml.total;
                    for (unsigned j = 0; j < bits; ++j) {
                        const unsigned bit =
                            (digit >> (bits - 1 - j)) & 1;
                        mk[ml.offset[j] + bit] = Block::zero();
                        mk[ml.offset[j] + (bit ^ 1)] = ws.otOut[inst + j];
                    }
                    wk.miniAlphaStage[i] = digit;
                }
                ggmReconstructBatchInto(
                    *wk.miniPrg, wk.miniAlphaStage.data(), cnt, ml,
                    wk.miniKnown.data(), ml.total, wk.miniBatch,
                    wk.miniLeavesAll.data() + sh.sumOffset[lvl],
                    sh.sumsPerTree);
            }

            // Pass 2: one fused batch hash over the chunk's mini
            // leaves (contiguous tweaks), then unmask the real sums
            // (the pad at the punctured digit hashes an unknown zero
            // leaf and is skipped).
            if (sh.sumsPerTree > 0) {
                ws.crhf.hashBatch(wk.miniLeavesAll.data(),
                                  wk.hashPads.data(),
                                  cnt * sh.sumsPerTree,
                                  slot.sumBase +
                                      batch_base * sh.sumsPerTree);
                for (size_t i = 0; i < cnt; ++i) {
                    const size_t tr = batch_base + i;
                    const unsigned *dg =
                        slot.digits.data() + tr * num_levels;
                    const Block *ex =
                        slot.extra.data() + tr * sh.extraPerTree;
                    const Block *pads =
                        wk.hashPads.data() + i * sh.sumsPerTree;
                    Block *ks =
                        wk.knownSums.data() + i * sh.layout.total;
                    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
                        const unsigned m = sh.arities[lvl];
                        if (m == 2)
                            continue;
                        const unsigned digit = dg[lvl];
                        const uint32_t so = sh.sumOffset[lvl];
                        Block *lk = ks + sh.layout.offset[lvl];
                        for (unsigned c = 0; c < m; ++c)
                            lk[c] = c == digit
                                        ? Block::zero() // r_digit unknown
                                        : ex[so + c] ^ pads[so + c];
                    }
                }
            }

            // Pass 3: level-synchronous cross-tree reconstruction of
            // the chunk's main trees, straight into the leaf span.
            ggmReconstructBatchInto(*wk.mainPrg,
                                    slot.alphas.data() + batch_base, cnt,
                                    sh.layout, wk.knownSums.data(),
                                    sh.layout.total, wk.batch,
                                    v + batch_base * sh.leaves,
                                    sh.leaves);

            // Final node recovery: v_alpha = (Delta ^ sum of all w) ^
            // (sum of the leaves we know) = w_alpha ^ Delta.
            for (size_t i = 0; i < cnt; ++i) {
                const size_t tr = batch_base + i;
                Block *leaves = v + tr * sh.leaves;
                Block known_sum = Block::zero();
                for (size_t j = 0; j < sh.leaves; ++j)
                    known_sum ^= leaves[j];
                leaves[slot.alphas[tr]] =
                    slot.extra[tr * sh.extraPerTree + sh.extraPerTree -
                               1] ^
                    known_sum;
            }
        }
    });

    if (prg_ops)
        *prg_ops = ws.prgOps() - ops_before;
}

} // namespace ironman::ot
