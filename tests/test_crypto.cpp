/**
 * @file
 * Known-answer and property tests for the crypto substrate.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/hexutil.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/chacha.h"
#include "crypto/crhf.h"
#include "crypto/seed_expander.h"

namespace ironman::crypto {
namespace {

// ---------------------------------------------------------------------------
// AES
// ---------------------------------------------------------------------------

/** FIPS-197 Appendix C.1 known-answer test. */
TEST(AesTest, Fips197KnownAnswer)
{
    auto key = hexDecode("000102030405060708090a0b0c0d0e0f");
    auto pt = hexDecode("00112233445566778899aabbccddeeff");
    auto expect = hexDecode("69c4e0d86a7b0430d8cdb78070b4c55a");

    Aes128 aes(Block::fromBytes(key.data()));
    uint8_t out[16];
    aes.encryptBytes(pt.data(), out);
    EXPECT_EQ(hexEncode(out, 16), hexEncode(expect.data(), 16));
}

/** NIST all-zero vector. */
TEST(AesTest, ZeroVector)
{
    Aes128 aes(Block::zero());
    Block ct = aes.encrypt(Block::zero());
    EXPECT_EQ(hexEncode(reinterpret_cast<uint8_t *>(&ct), 16),
              "66e94bd4ef8a2c3b884cfa59ca342b2e");
}

/** The AES-NI engine and the software engine must agree bit-for-bit. */
TEST(AesTest, EnginesAgree)
{
    if (!Aes128::usingAesni())
        GTEST_SKIP() << "AES-NI not available on this host";

    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        Block key = rng.nextBlock();
        Block pt = rng.nextBlock();
        Aes128 aes(key);
        Block fast = aes.encrypt(pt);
        Aes128::forceSoftware(true);
        Block slow = aes.encrypt(pt);
        Aes128::forceSoftware(false);
        EXPECT_EQ(fast, slow) << "trial " << trial;
    }
}

TEST(AesTest, BatchMatchesSingle)
{
    Rng rng(12);
    Aes128 aes(rng.nextBlock());
    std::vector<Block> in = rng.nextBlocks(37); // odd size exercises tail
    std::vector<Block> batch(in.size());
    aes.encryptBatch(in.data(), batch.data(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(batch[i], aes.encrypt(in[i]));
}

TEST(AesTest, DifferentKeysDiffer)
{
    Aes128 a(Block::fromUint64(1));
    Aes128 b(Block::fromUint64(2));
    Block pt = Block::fromUint64(99);
    EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

// ---------------------------------------------------------------------------
// ChaCha
// ---------------------------------------------------------------------------

/** RFC 8439 section 2.3.2 ChaCha20 block-function test vector. */
TEST(ChaChaTest, Rfc8439KnownAnswer)
{
    std::array<uint32_t, 8> key;
    for (int i = 0; i < 8; ++i) {
        // Key bytes 00 01 02 ... 1f, little-endian words.
        uint32_t w = 0;
        for (int b = 3; b >= 0; --b)
            w = (w << 8) | uint32_t(4 * i + b);
        key[i] = w;
    }
    std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};

    ChaCha chacha(20);
    uint8_t out[64];
    chacha.block(key, 1, nonce, out);

    const std::string expect =
        "10f1e7e4d13b5915500fdd1fa32071c4"
        "c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2"
        "b5129cd1de164eb9cbd083e8a2503c4e";
    EXPECT_EQ(hexEncode(out, 64), expect);
}

TEST(ChaChaTest, RoundCountChangesOutput)
{
    std::array<uint32_t, 8> key{1, 2, 3, 4, 5, 6, 7, 8};
    std::array<uint32_t, 3> nonce{9, 10, 11};
    uint8_t o8[64], o12[64], o20[64];
    ChaCha(8).block(key, 0, nonce, o8);
    ChaCha(12).block(key, 0, nonce, o12);
    ChaCha(20).block(key, 0, nonce, o20);
    EXPECT_NE(hexEncode(o8, 64), hexEncode(o12, 64));
    EXPECT_NE(hexEncode(o12, 64), hexEncode(o20, 64));
}

TEST(ChaChaTest, ExpandSeedDeterministicAndTweaked)
{
    ChaCha chacha(8);
    Block seed = Block::fromUint64(77);
    std::array<Block, 4> a, b, c;
    chacha.expandSeed(seed, 0, a);
    chacha.expandSeed(seed, 0, b);
    chacha.expandSeed(seed, 1, c);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // All four blocks distinct (overwhelming probability).
    std::set<std::string> uniq;
    for (const Block &blk : a)
        uniq.insert(blk.toHex());
    EXPECT_EQ(uniq.size(), 4u);
}

/**
 * The SIMD multi-seed batch (AVX2 x8 / SSE2 x4 lanes + scalar tail)
 * must be bit-identical to per-seed expandSeed() for every round
 * count, batch size (exercising every lane-width path and the tail),
 * take count and output stride — and with the SIMD cores forced off.
 */
TEST(ChaChaTest, ExpandSeedsBatchMatchesScalar)
{
    Rng rng(31);
    for (int rounds : {8, 12, 20}) {
        ChaCha chacha(rounds);
        for (size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 21u}) {
            std::vector<Block> seeds = rng.nextBlocks(n);
            const uint64_t tweak = rng.nextUint64();
            for (unsigned take : {1u, 2u, 4u}) {
                const size_t stride = take + (n % 3); // unaligned strides
                std::vector<Block> batch(n * stride, Block::ones());
                chacha.expandSeedsBatch(seeds.data(), n, tweak,
                                        batch.data(), stride, take);

                ChaCha::forceScalar(true);
                std::vector<Block> scalar(n * stride, Block::ones());
                chacha.expandSeedsBatch(seeds.data(), n, tweak,
                                        scalar.data(), stride, take);
                ChaCha::forceScalar(false);
                EXPECT_EQ(batch, scalar)
                    << "rounds=" << rounds << " n=" << n
                    << " take=" << take;

                std::array<Block, 4> ref;
                for (size_t i = 0; i < n; ++i) {
                    chacha.expandSeed(seeds[i], tweak, ref);
                    for (unsigned q = 0; q < take; ++q)
                        ASSERT_EQ(batch[i * stride + q], ref[q])
                            << "rounds=" << rounds << " n=" << n
                            << " seed=" << i << " block=" << q;
                    // Blocks past `take` untouched.
                    for (size_t q = take; q < stride; ++q)
                        ASSERT_EQ(batch[i * stride + q], Block::ones());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SeedExpander (GGM tree expander)
// ---------------------------------------------------------------------------

class SeedExpanderParamTest
    : public ::testing::TestWithParam<std::tuple<PrgKind, unsigned>>
{};

TEST_P(SeedExpanderParamTest, DeterministicAcrossInstances)
{
    auto [kind, arity] = GetParam();
    auto e1 = makeTreeExpander(kind, arity);
    auto e2 = makeTreeExpander(kind, arity);
    Block seed = Block::fromUint64(123);
    std::vector<Block> c1(arity), c2(arity);
    e1->expand(&seed, c1.data(), 1, arity);
    e2->expand(&seed, c2.data(), 1, arity);
    EXPECT_EQ(c1, c2);
}

TEST_P(SeedExpanderParamTest, LevelMatchesPerSeed)
{
    auto [kind, arity] = GetParam();
    Rng rng(5);
    std::vector<Block> parents = rng.nextBlocks(19);
    auto exp = makeTreeExpander(kind, arity);

    std::vector<Block> level(parents.size() * arity);
    exp->expand(parents.data(), level.data(), parents.size(), arity);

    auto ref = makeTreeExpander(kind, arity);
    std::vector<Block> one(arity);
    for (size_t j = 0; j < parents.size(); ++j) {
        ref->expand(&parents[j], one.data(), 1, arity);
        for (unsigned c = 0; c < arity; ++c)
            EXPECT_EQ(level[j * arity + c], one[c]);
    }
}

TEST_P(SeedExpanderParamTest, OpCountMatchesModel)
{
    auto [kind, arity] = GetParam();
    auto exp = makeTreeExpander(kind, arity);
    Block seed = Block::fromUint64(9);
    std::vector<Block> kids(arity);
    exp->expand(&seed, kids.data(), 1, arity);
    uint64_t expect = kind == PrgKind::Aes ? arity : (arity + 3) / 4;
    EXPECT_EQ(exp->ops(), expect);
    EXPECT_EQ(exp->opsPerSeed(arity), expect);
}

TEST_P(SeedExpanderParamTest, ChildrenDistinctFromParentAndEachOther)
{
    auto [kind, arity] = GetParam();
    auto exp = makeTreeExpander(kind, arity);
    Rng rng(6);
    Block seed = rng.nextBlock();
    std::vector<Block> kids(arity);
    exp->expand(&seed, kids.data(), 1, arity);
    std::set<std::string> uniq;
    uniq.insert(seed.toHex());
    for (const Block &k : kids)
        uniq.insert(k.toHex());
    EXPECT_EQ(uniq.size(), arity + 1);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndArities, SeedExpanderParamTest,
    ::testing::Combine(::testing::Values(PrgKind::Aes, PrgKind::ChaCha8,
                                         PrgKind::ChaCha20),
                       ::testing::Values(2u, 4u, 8u, 16u, 32u)),
    [](const auto &info) {
        return prgKindName(std::get<0>(info.param)) + "_m" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// CRHF
// ---------------------------------------------------------------------------

TEST(CrhfTest, DeterministicTweakSeparated)
{
    Crhf h;
    Block x = Block::fromUint64(5);
    EXPECT_EQ(h.hash(x, 0), h.hash(x, 0));
    EXPECT_NE(h.hash(x, 0), h.hash(x, 1));
    EXPECT_NE(h.hash(x, 0), h.hash(Block::fromUint64(6), 0));
}

TEST(CrhfTest, BatchMatchesSingle)
{
    Crhf h;
    Rng rng(8);
    std::vector<Block> in = rng.nextBlocks(23);
    std::vector<Block> out(in.size());
    h.hashBatch(in.data(), out.data(), in.size(), 100);
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[i], h.hash(in[i], 100 + i));
}

TEST(CrhfTest, BatchMatchesSingleOnEveryBackend)
{
    // The fused 8-wide AES-NI MMO pipeline and the portable software
    // path must agree with the scalar hash — including at sizes that
    // exercise the 8-wide main loop, its tail, and in-place hashing.
    Rng rng(81);
    std::vector<Block> in = rng.nextBlocks(67);

    for (bool force_soft : {false, true}) {
        Aes128::forceSoftware(force_soft);
        Crhf h;
        for (size_t n : {size_t(1), size_t(7), size_t(8), size_t(9),
                         size_t(64), in.size()}) {
            std::vector<Block> out(n);
            h.hashBatch(in.data(), out.data(), n, 777);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], h.hash(in[i], 777 + i))
                    << (force_soft ? "software" : "native") << " n=" << n
                    << " i=" << i;

            // In-place batch (the chosen-OT pad path).
            std::vector<Block> inplace(in.begin(), in.begin() + n);
            h.hashBatch(inplace.data(), inplace.data(), n, 777);
            ASSERT_EQ(inplace, out)
                << (force_soft ? "software" : "native") << " n=" << n;
        }
        Aes128::forceSoftware(false);
    }

    // Both engines compute the same MMO function.
    Crhf native;
    Aes128::forceSoftware(true);
    Crhf soft;
    std::vector<Block> a(in.size()), b(in.size());
    native.hashBatch(in.data(), a.data(), in.size(), 5);
    Aes128::forceSoftware(false);
    soft.hashBatch(in.data(), b.data(), in.size(), 5);
    EXPECT_EQ(a, b);
}

TEST(CrhfTest, NotTheIdentityAndMixesDelta)
{
    Crhf h;
    Rng rng(9);
    Block x = rng.nextBlock();
    Block delta = rng.nextBlock();
    EXPECT_NE(h.hash(x, 0), x);
    // H(x) ^ H(x ^ delta) must not equal delta (else COT->OT leaks).
    EXPECT_NE(h.hash(x, 0) ^ h.hash(x ^ delta, 0), delta);
}

} // namespace
} // namespace ironman::crypto
