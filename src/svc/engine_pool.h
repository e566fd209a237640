/**
 * @file
 * Warm-engine pooling for the COT service.
 *
 * A Ferret engine's expensive state — the OtWorkspace leaf slot (one
 * t x l matrix: 31 MB at 2^20), the spawned worker pool, and above all the
 * precomputed LPN index tape (~46 MB of AES + transpose for 2^20) —
 * depends only on FerretParams, not on the session. EnginePool keeps
 * finished engines warm, keyed by (params shape, role), and hands them
 * to the next session of the same shape: resetSession() swaps in the
 * new channel and base reserve, and the engine behaves bit-identically
 * to a freshly constructed one while reusing every buffer.
 *
 * Invariant 12 (DESIGN.md): a pooled engine serves successive sessions
 * with zero heap allocations after its first warm extension — checkout,
 * resetSession, extendInto, and release are all allocation-free once
 * the engine and the pool's bookkeeping are warm (counting-allocator
 * test in tests/test_svc_pool_alloc.cpp).
 *
 * Leases are RAII: destroying a SenderLease/ReceiverLease returns the
 * engine to the idle set. The pool is thread-safe; individual engines
 * are not (one session at a time — the lease enforces exclusivity).
 */

#ifndef IRONMAN_SVC_ENGINE_POOL_H
#define IRONMAN_SVC_ENGINE_POOL_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "ot/ferret.h"
#include "ot/ferret_params.h"

namespace ironman::svc {

/** The FerretParams fields that determine engine shape and output. */
struct EngineKey
{
    uint64_t n, k, t, lpnSeed;
    uint32_t arity, lpnWeight;
    uint8_t prg;

    static EngineKey of(const ot::FerretParams &p);

    bool
    operator<(const EngineKey &o) const
    {
        return std::tie(n, k, t, lpnSeed, arity, lpnWeight, prg) <
               std::tie(o.n, o.k, o.t, o.lpnSeed, o.arity, o.lpnWeight,
                        o.prg);
    }

    bool
    operator==(const EngineKey &o) const
    {
        return !(*this < o) && !(o < *this);
    }
};

/**
 * Admission-policy membership: is @p p's shape (EngineKey fields) on
 * @p allowlist? An EMPTY allowlist allows everything — the opt-in
 * convention both CotServer and InferServer use.
 */
bool paramsAllowed(const ot::FerretParams &p,
                   const std::vector<ot::FerretParams> &allowlist);

class EnginePool
{
  public:
    struct Config
    {
        int threads = 1; ///< worker-pool width per engine
    };

    EnginePool() : EnginePool(Config{}) {}
    explicit EnginePool(Config cfg) : cfg_(cfg) {}

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /** RAII checkout of one sender engine. */
    class SenderLease
    {
      public:
        SenderLease() = default;
        SenderLease(SenderLease &&o) noexcept { *this = std::move(o); }
        SenderLease &operator=(SenderLease &&o) noexcept;
        ~SenderLease() { release(); }

        ot::FerretCotSender *get() const { return engine.get(); }
        ot::FerretCotSender *operator->() const { return engine.get(); }
        explicit operator bool() const { return engine != nullptr; }

        /** Return the engine to the pool early. */
        void release();

      private:
        friend class EnginePool;
        std::unique_ptr<ot::FerretCotSender> engine;
        EnginePool *pool = nullptr;
        EngineKey key{};
    };

    /** RAII checkout of one receiver engine. */
    class ReceiverLease
    {
      public:
        ReceiverLease() = default;
        ReceiverLease(ReceiverLease &&o) noexcept { *this = std::move(o); }
        ReceiverLease &operator=(ReceiverLease &&o) noexcept;
        ~ReceiverLease() { release(); }

        ot::FerretCotReceiver *get() const { return engine.get(); }
        ot::FerretCotReceiver *operator->() const { return engine.get(); }
        explicit operator bool() const { return engine != nullptr; }

        void release();

      private:
        friend class EnginePool;
        std::unique_ptr<ot::FerretCotReceiver> engine;
        EnginePool *pool = nullptr;
        EngineKey key{};
    };

    /**
     * Check out a warm engine for @p p, constructing (and prewarming)
     * one only when no idle engine of that shape exists.
     */
    SenderLease checkoutSender(const ot::FerretParams &p);
    ReceiverLease checkoutReceiver(const ot::FerretParams &p);

    /**
     * Construct + prewarm @p count engines per role ahead of traffic
     * so the first sessions skip the tape build.
     */
    void prewarm(const ot::FerretParams &p, int count);

    /** Engines ever constructed (reuse means this stops growing). */
    uint64_t sendersCreated() const;
    uint64_t receiversCreated() const;

    /** Engines currently idle in the pool. */
    size_t idleSenders() const;
    size_t idleReceivers() const;

    const Config &config() const { return cfg_; }

  private:
    void returnSender(const EngineKey &key,
                      std::unique_ptr<ot::FerretCotSender> e);
    void returnReceiver(const EngineKey &key,
                        std::unique_ptr<ot::FerretCotReceiver> e);
    std::unique_ptr<ot::FerretCotSender>
    makeSender(const ot::FerretParams &p);
    std::unique_ptr<ot::FerretCotReceiver>
    makeReceiver(const ot::FerretParams &p);

    Config cfg_;
    mutable std::mutex m;
    std::map<EngineKey, std::vector<std::unique_ptr<ot::FerretCotSender>>>
        idleSend;
    std::map<EngineKey,
             std::vector<std::unique_ptr<ot::FerretCotReceiver>>>
        idleRecv;
    uint64_t madeSenders = 0;
    uint64_t madeReceivers = 0;
};

} // namespace ironman::svc

#endif // IRONMAN_SVC_ENGINE_POOL_H
