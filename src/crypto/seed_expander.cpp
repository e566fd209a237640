#include "crypto/seed_expander.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/logging.h"
#include "crypto/aes.h"
#include "crypto/chacha.h"

namespace ironman::crypto {

std::string
prgKindName(PrgKind kind)
{
    switch (kind) {
      case PrgKind::Aes: return "AES";
      case PrgKind::ChaCha8: return "ChaCha8";
      case PrgKind::ChaCha12: return "ChaCha12";
      case PrgKind::ChaCha20: return "ChaCha20";
    }
    return "?";
}

namespace {

int
chachaRounds(PrgKind kind)
{
    switch (kind) {
      case PrgKind::ChaCha8: return 8;
      case PrgKind::ChaCha12: return 12;
      case PrgKind::ChaCha20: return 20;
      default: IRONMAN_PANIC("not a ChaCha kind");
    }
}

/** Fixed, public per-slot AES keys (both parties derive the same). */
Block
slotKey(unsigned slot)
{
    // Distinct nothing-up-my-sleeve constants per child slot.
    return Block(0x9e3779b97f4a7c15ULL * (slot + 1),
                 0xc2b2ae3d27d4eb4fULL ^ (uint64_t(slot) << 32));
}

/**
 * AES tree expander: child_c = AES_{k_c}(s) ^ s — the standard
 * double-length PRG of Sec. 2.3.1 generalized to m fixed keys
 * (Fig. 6(b)). Batched per slot so the AES pipeline stays full (the
 * software analogue of the breadth-first hardware schedule, Sec. 4.3).
 */
class AesTreeExpander final : public SeedExpander
{
  public:
    explicit AesTreeExpander(unsigned max_fanout)
        : SeedExpander(max_fanout)
    {
        aesSlots.reserve(max_fanout);
        for (unsigned i = 0; i < max_fanout; ++i)
            aesSlots.emplace_back(slotKey(i));
    }

    void
    expand(const Block *seeds, Block *out, size_t n,
           unsigned fanout) override
    {
        IRONMAN_CHECK(fanout >= 1 && fanout <= maxFan);
        if (scratch.size() < n)
            scratch.resize(n);
        for (unsigned c = 0; c < fanout; ++c) {
            aesSlots[c].encryptBatch(seeds, scratch.data(), n);
            for (size_t i = 0; i < n; ++i)
                out[i * fanout + c] = scratch[i] ^ seeds[i];
        }
        opCount += uint64_t(fanout) * n;
    }

    uint64_t opsPerSeed(unsigned fanout) const override { return fanout; }

  private:
    std::vector<Aes128> aesSlots;
    std::vector<Block> scratch;
};

/** ChaCha tree expander: one core call yields 4 children (Fig. 6(c)). */
class ChaChaTreeExpander final : public SeedExpander
{
  public:
    ChaChaTreeExpander(PrgKind kind, unsigned max_fanout)
        : SeedExpander(max_fanout), core(chachaRounds(kind))
    {
    }

    void
    expand(const Block *seeds, Block *out, size_t n,
           unsigned fanout) override
    {
        IRONMAN_CHECK(fanout >= 1 && fanout <= maxFan);
        // Chunk index is the tweak so all chunks of one expansion stay
        // distinct; every chunk runs all n seeds through the SIMD
        // multi-seed core (8-wide on AVX2), which is what keeps the
        // level-synchronous cross-tree GGM expansion pipeline-bound
        // rather than call-overhead-bound.
        for (unsigned produced = 0, chunk_idx = 0; produced < fanout;
             produced += 4, ++chunk_idx) {
            const unsigned take = std::min(4u, fanout - produced);
            core.expandSeedsBatch(seeds, n, chunk_idx, out + produced,
                                  fanout, take);
            opCount += n;
        }
    }

    uint64_t
    opsPerSeed(unsigned fanout) const override
    {
        return (fanout + 3) / 4; // 512-bit output = 4 blocks per call
    }

  private:
    ChaCha core;
};

} // namespace

std::unique_ptr<SeedExpander>
makeTreeExpander(PrgKind kind, unsigned max_fanout)
{
    IRONMAN_CHECK(max_fanout >= 2);
    if (kind == PrgKind::Aes)
        return std::make_unique<AesTreeExpander>(max_fanout);
    return std::make_unique<ChaChaTreeExpander>(kind, max_fanout);
}

} // namespace ironman::crypto
