/**
 * @file
 * The shared MLP layer loop of the private-inference stack.
 *
 * One MlpRunner evaluates a public fixed-point MLP
 * (ppml::MlpModelSpec) on additive secret shares: dense layers are
 * local on shares (the model is public; both parties truncate their
 * own share — the standard local approximation, off by at most
 * mlpTruncationErrorBound() ulps at the output), ReLU layers run
 * through the GMW engine (SecureCompute) and consume COT
 * correlations. The SAME runner instance drives
 *
 *   - the in-process example (examples/private_mlp.cpp),
 *   - the inference service (infer::InferServer / infer::InferClient),
 *   - tests and bench/infer_e2e.cpp,
 *
 * so the served protocol is the in-process protocol by construction —
 * the bit-identity tests compare the two end to end.
 *
 * Determinism note (what makes served-vs-in-process bit-identity
 * possible): the GMW masks are drawn from deterministic per-party
 * tapes and the COT pads cancel inside the chosen-OT unmasking, so
 * every intermediate SHARE is a deterministic function of the input
 * shares and the op sequence — independent of which CotSupply
 * (FerretCotEngine, svc::ReservoirCotSupply or svc::OperatorCotSupply)
 * provided the correlations. All three take the same way: copied out
 * of a ppml::CotBank into SecureCompute's reused buffers.
 *
 * Per-layer accounting: COTs from SecureCompute's own counter
 * (cotsConsumed(), the same on every supply), online bytes
 * from the channel, protocol rounds analytically (each AND/MUX batch
 * is one interaction) — the per-layer view EXPERIMENTS.md and the
 * bench report.
 */

#ifndef IRONMAN_PPML_MLP_RUNNER_H
#define IRONMAN_PPML_MLP_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/channel.h"
#include "ot/ferret_params.h"
#include "ppml/model_zoo.h"
#include "ppml/secure_compute.h"

namespace ironman::ppml {

/** One layer's online cost, measured at this party. */
struct MlpLayerStat
{
    std::string label; ///< "dense0", "relu0", ...
    size_t cots = 0;   ///< correlations consumed (both directions)
    uint64_t bytes = 0;  ///< online bytes this party pushed
    unsigned rounds = 0; ///< GMW interaction batches
};

/** Party-symmetric layered MLP evaluation on additive shares. */
class MlpRunner
{
  public:
    /** Builds the public weights from the spec; both parties agree. */
    MlpRunner(const MlpModelSpec &spec, unsigned width);

    /**
     * Forward @p x_shares (batch * inputDim values, masked to width)
     * through every layer, in lockstep with the peer running the same
     * call on its shares. Returns batch * outputDim output shares.
     * @p ch is only read for byte accounting (the GMW traffic runs on
     * SecureCompute's channel — pass the same one).
     */
    std::vector<uint64_t> forward(SecureCompute &sc, net::Channel &ch,
                                  const std::vector<uint64_t> &x_shares);

    const MlpModelSpec &spec() const { return spec_; }
    unsigned width() const { return width_; }

    /** Per-layer costs of the LAST forward() call. */
    const std::vector<MlpLayerStat> &layerStats() const { return stats_; }

    uint64_t
    maskValue(uint64_t v) const
    {
        return width_ == 64 ? v
                            : (v & ((uint64_t(1) << width_) - 1));
    }

    /** Share value as a signed width-bit integer. */
    int64_t toSigned(uint64_t v) const;

  private:
    std::vector<uint64_t> denseLocal(size_t layer,
                                     const std::vector<uint64_t> &x,
                                     size_t batch) const;

    MlpModelSpec spec_;
    unsigned width_;
    std::vector<std::vector<int64_t>> weights; ///< one per dense layer
    std::vector<MlpLayerStat> stats_;
};

// ---------------------------------------------------------------------------
// Sharing helpers + the in-process reference path
// ---------------------------------------------------------------------------

/**
 * Additively share @p values at @p width from @p rng: x0 uniform,
 * x1 = value - x0. The inference client and the in-process reference
 * share through this one function so equal share seeds give equal
 * share streams (the bit-identity anchor).
 */
void shareMlpValues(Rng &rng, unsigned width,
                    const std::vector<int64_t> &values,
                    std::vector<uint64_t> *x0, std::vector<uint64_t> *x1);

/** Reconstruct signed outputs from the two share vectors. */
std::vector<int64_t> reconstructMlpValues(
    unsigned width, const std::vector<uint64_t> &y0,
    const std::vector<uint64_t> &y1);

/** What one in-process (MemoryDuplex + FerretCotEngine) run produced. */
struct LocalMlpResult
{
    /** Reconstructed outputs, one vector per request. */
    std::vector<std::vector<int64_t>> outputs;
    size_t cotsPerParty = 0; ///< supply correlations one party consumed
    uint64_t onlineBytes = 0; ///< both parties' online sends
    uint64_t extensions = 0;  ///< party-0 engine extensions
};

/**
 * The reference path the served stack must reproduce bit-exactly: two
 * threads over a MemoryDuplex, one persistent FerretCotEngine per
 * party (params/setup_seed as given), one SecureCompute + MlpRunner
 * per party, @p requests evaluated sequentially on one session.
 * Inputs are shared with Rng(share_seed) exactly like
 * infer::InferClient does.
 */
LocalMlpResult runLocalMlpInference(
    const MlpModelSpec &spec, unsigned width,
    const std::vector<std::vector<int64_t>> &requests,
    uint64_t share_seed, uint64_t setup_seed,
    const ot::FerretParams &params);

} // namespace ironman::ppml

#endif // IRONMAN_PPML_MLP_RUNNER_H
