/**
 * @file
 * Wire protocol of the inference service (src/infer): the handshake
 * that negotiates WHAT to compute (a ppml::MlpModelSpec by wire id,
 * the fixed-point bitwidth, the images-per-request batch size, and
 * the two COT-service sessions the correlations come from) and HOW
 * requests are scheduled (how many may ride in flight, trace
 * context), plus the request/response opcodes that carry
 * secret-shared tensors.
 *
 * Version 5 session, client's (= MPC party 0's) view:
 *
 *   connect ──► InferHello { magic, version, width, model, batch,
 *                            cot session ids, depth, flags }
 *           ◄── InferAccept { status, negotiated depth, negotiated
 *                             flags, sessionId }
 *   loop:   ──► InferOp::Infer, u32 tag, batch*inputDim input shares
 *               (the server's share x1) — ENQUEUED on both sides, up
 *               to 2x the negotiated depth in flight
 *           ──► InferOp::Commit, u16 count — both ends run ONE joint
 *               MlpRunner::forward over the OLDEST count pending
 *               requests' concatenated shares (effective batch = count
 *               x batch, so the DReLU round chain is paid once per
 *               group, not once per request)
 *           ◄── per committed request, in submission order: u32 tag,
 *               batch*outputDim output shares (the server's y1)
 *   final:  ──► InferOp::Close
 *
 * Commits stream: the 2x-depth recv-ahead lets the client push group
 * k+1's Infer frames while group k's forward is still evaluating.
 *
 * Correlations never cross this channel: the client stocks two
 * sessions of opposite roles on the COT service attached to the
 * inference server, and the hello names them. The server draws the
 * operator halves of the same two sessions from its svc::OperatorStock.
 *
 * The online protocol has ONE dialect: every chosen-OT payload
 * travels at semantic width (1-bit AND messages, width-bit MUX arms,
 * raw derand bytes — SecureCompute's packed codec), the share tensors
 * as width-bit LE lanes (sendShareVectorPacked), and the DReLU is the
 * Kogge-Stone ladder. The server serves exactly kInferWireVersion; any
 * other version gets InferStatus::BadVersion at the handshake.
 *
 * Flags: kInferFlagTrace adds the trace trailers (below); it is the
 * only flag. The server clamps the requested depth to its own bound
 * and echoes the result in the accept; unknown flag bits are dropped,
 * not rejected.
 */

#ifndef IRONMAN_INFER_WIRE_H
#define IRONMAN_INFER_WIRE_H

#include <cstdint>
#include <vector>

#include "net/channel.h"

namespace ironman::infer {

constexpr uint32_t kInferMagic = 0x49524946; ///< "IRIF"
constexpr uint16_t kInferWireVersion = 5;

// Hello/accept flag bits. 0x1 and 0x2 were the v2 packing and
// comparison-circuit flags, 0x4 the v4 streaming-commit flag; they
// stay unassigned.

/**
 * Wire-propagated trace context (PR 10): the hello carries a 64-bit
 * trace id + sampled bit as trailing bytes, the accept returns the
 * server's monotonic clock sample (the client pairs it with the
 * hello->accept RTT midpoint for the cross-party clock-offset
 * estimate — see common/trace.h). Both trailers exist ONLY when this
 * bit is set on the respective message, so a flagless transcript
 * carries no trace bytes at all.
 */
constexpr uint16_t kInferFlagTrace = 0x8;

/** Per-request opcodes (client to server). */
enum class InferOp : uint8_t
{
    Infer = 1,  ///< one batch: tagged input shares, enqueued
    Close = 2,  ///< end the session
    Commit = 3, ///< jointly evaluate the oldest pending requests
};

/** Handshake outcome (server to client). */
enum class InferStatus : uint8_t
{
    Ok = 0,
    BadMagic = 1,
    BadVersion = 2,
    BadModel = 3,   ///< model id not in ppml::inferenceZoo()
    BadWidth = 4,   ///< width outside the model's overflow-free range
    BadBatch = 5,   ///< zero or above the server's maxBatch
    /** Bad COT session ids, or no COT service attached. */
    BadSupply = 6,
    // 7 and 8 were the engine-supply parameter rejects; they stay
    // unassigned.
    /** COT sids unknown, ended, or owned by another client. */
    ForeignSession = 9,
    BadDepth = 10, ///< zero in-flight depth
};

const char *inferStatusName(InferStatus s);

/** Client's opening message. */
struct InferHello
{
    uint16_t version = kInferWireVersion;
    uint32_t modelId = 0;
    uint8_t width = 32;
    uint32_t batch = 1;
    /** The client's Sender-role COT session id. */
    uint64_t sendSessionId = 0;
    /** The client's Receiver-role COT session id. */
    uint64_t recvSessionId = 0;
    /** Requested in-flight requests per session (server clamps). */
    uint16_t depth = 1;
    /** Requested session properties (kInferFlag*). */
    uint16_t flags = 0;
    /** kInferFlagTrace: the Dapper-style trace id this session's spans
     * correlate under on both parties (0 = let the client pick). */
    uint64_t traceId = 0;
    /** kInferFlagTrace: whether the chain is sampled (servers adopt
     * the bit; unsampled sessions negotiate but record nothing). */
    uint8_t traceSampled = 1;
};

/** Server's reply. */
struct InferAccept
{
    InferStatus status = InferStatus::Ok;
    uint16_t depth = 0; ///< negotiated in-flight bound
    uint16_t flags = 0; ///< negotiated wire properties
    uint64_t sessionId = 0;
    /** kInferFlagTrace only: the server's trace::nowUs() sample taken
     * while sending this accept — the client's clock-offset anchor. */
    uint64_t serverClockUs = 0;
};

void sendInferHello(net::Channel &ch, const InferHello &h);

/**
 * Parse the peer's hello. Returns Ok and fills @p out, or the
 * structural rejection (magic/version/model/width/batch/depth/sids);
 * policy rejections (maxBatch, depth clamp, missing COT service) are
 * the server's to add. A BadMagic/BadVersion return has read only the
 * 6-byte magic+version prefix.
 */
InferStatus recvInferHello(net::Channel &ch, InferHello *out);

void sendInferAccept(net::Channel &ch, const InferAccept &a);
InferAccept recvInferAccept(net::Channel &ch);

void sendInferOp(net::Channel &ch, InferOp op);
InferOp recvInferOp(net::Channel &ch);

/** Request/response tag. */
void sendInferTag(net::Channel &ch, uint32_t tag);
uint32_t recvInferTag(net::Channel &ch);

/** Commit group count (follows every InferOp::Commit). */
void sendCommitCount(net::Channel &ch, uint16_t count);
uint16_t recvCommitCount(net::Channel &ch);

/**
 * Width-packed tensor: n width-bit LSB-first lanes, ceil(n*width/8)
 * bytes, no length prefix (n and width are negotiated session state).
 * Elements are masked to width on the way out and arrive masked.
 */
void sendShareVectorPacked(net::Channel &ch, const uint64_t *shares,
                           size_t n, unsigned width);
void recvShareVectorPacked(net::Channel &ch, uint64_t *shares, size_t n,
                           unsigned width);

} // namespace ironman::infer

#endif // IRONMAN_INFER_WIRE_H
