#include "infer/wire.h"

#include <vector>

#include "common/logging.h"
#include "net/codec.h"
#include "ppml/model_zoo.h"

namespace ironman::infer {

using net::getU16;
using net::getU32;
using net::getU64;
using net::putU16;
using net::putU32;
using net::putU64;

namespace {

// Hello body (after the 6-byte magic+version prefix):
// width(1) modelId(4) batch(4) sendSid(8) recvSid(8) depth(2) flags(2)
constexpr size_t kInferHelloPrefixBytes = 4 + 2;
constexpr size_t kInferHelloBodyBytes = 1 + 4 + 4 + 2 * 8 + 2 + 2;
// kInferFlagTrace trailer: traceId(8) sampled(1), present exactly when
// the hello's flag word carries the bit — so a flagless hello carries
// no trace bytes, whatever the struct's trace fields hold.
constexpr size_t kInferHelloTraceBytes = 8 + 1;
// status(1) pad(1) depth(2) flags(2) pad(2) sessionId(8).
constexpr size_t kInferAcceptBytes = 1 + 1 + 2 + 2 + 2 + 8;
// Accept trailer when the echoed flags carry kInferFlagTrace: the
// server's monotonic clock sample (8), the clock-offset anchor.
constexpr size_t kInferAcceptTraceBytes = 8;

constexpr uint16_t kKnownFlags = kInferFlagStreamCommit | kInferFlagTrace;

size_t
putHelloBody(uint8_t *p, const InferHello &h)
{
    const uint8_t *base = p;
    *p++ = h.width;
    putU32(p, h.modelId);
    p += 4;
    putU32(p, h.batch);
    p += 4;
    putU64(p, h.sendSessionId);
    p += 8;
    putU64(p, h.recvSessionId);
    p += 8;
    putU16(p, h.depth);
    p += 2;
    putU16(p, h.flags);
    p += 2;
    if (h.flags & kInferFlagTrace) {
        putU64(p, h.traceId);
        p += 8;
        *p++ = h.traceSampled ? 1 : 0;
    }
    return size_t(p - base);
}

void
getHelloBody(const uint8_t *p, InferHello *out)
{
    out->width = *p++;
    out->modelId = getU32(p);
    p += 4;
    out->batch = getU32(p);
    p += 4;
    out->sendSessionId = getU64(p);
    p += 8;
    out->recvSessionId = getU64(p);
    p += 8;
    out->depth = getU16(p);
    p += 2;
    // Unknown flag bits are dropped (forward compatibility), not
    // rejected: a newer client degrades to what we both speak.
    out->flags = getU16(p) & kKnownFlags;
}

} // namespace

const char *
inferStatusName(InferStatus s)
{
    switch (s) {
      case InferStatus::Ok: return "ok";
      case InferStatus::BadMagic: return "bad magic";
      case InferStatus::BadVersion: return "bad version";
      case InferStatus::BadModel: return "unknown model";
      case InferStatus::BadWidth: return "bad bitwidth";
      case InferStatus::BadBatch: return "bad batch size";
      case InferStatus::BadSupply: return "bad cot supply";
      case InferStatus::ForeignSession:
          return "cot session not owned by this client";
      case InferStatus::BadDepth: return "bad in-flight depth";
    }
    return "?";
}

void
sendInferHello(net::Channel &ch, const InferHello &h)
{
    uint8_t buf[kInferHelloPrefixBytes + kInferHelloBodyBytes +
                kInferHelloTraceBytes] = {};
    putU32(buf, kInferMagic);
    putU16(buf + 4, h.version);
    const size_t body = putHelloBody(buf + kInferHelloPrefixBytes, h);
    ch.sendBytes(buf, kInferHelloPrefixBytes + body);
}

InferStatus
recvInferHello(net::Channel &ch, InferHello *out)
{
    // Magic + version first: a peer speaking another dialect is
    // rejected before its body is parsed, since the body layout (and
    // everything after it) is only known for this version.
    uint8_t prefix[kInferHelloPrefixBytes];
    ch.recvBytes(prefix, sizeof(prefix));
    if (getU32(prefix) != kInferMagic)
        return InferStatus::BadMagic;
    out->version = getU16(prefix + 4);
    if (out->version != kInferWireVersion)
        return InferStatus::BadVersion;

    uint8_t body[kInferHelloBodyBytes];
    ch.recvBytes(body, sizeof(body));
    getHelloBody(body, out);
    if (out->flags & kInferFlagTrace) {
        // The trace trailer travels iff the flag bit is set, so both
        // ends agree on the body length without a second negotiation.
        uint8_t trailer[kInferHelloTraceBytes];
        ch.recvBytes(trailer, sizeof(trailer));
        out->traceId = getU64(trailer);
        out->traceSampled = trailer[8] != 0;
    } else {
        out->traceId = 0;
        out->traceSampled = 0;
    }

    const ppml::MlpModelSpec *spec =
        ppml::findMlpModel(out->modelId);
    if (!spec)
        return InferStatus::BadModel;
    if (!spec->widthOk(out->width))
        return InferStatus::BadWidth;
    if (out->batch == 0)
        return InferStatus::BadBatch;
    if (out->depth == 0)
        return InferStatus::BadDepth;
    if (out->sendSessionId == 0 || out->recvSessionId == 0 ||
        out->sendSessionId == out->recvSessionId)
        return InferStatus::BadSupply;
    return InferStatus::Ok;
}

void
sendInferAccept(net::Channel &ch, const InferAccept &a)
{
    uint8_t buf[kInferAcceptBytes + kInferAcceptTraceBytes] = {};
    buf[0] = uint8_t(a.status);
    putU16(buf + 2, a.depth);
    putU16(buf + 4, a.flags);
    putU64(buf + 8, a.sessionId);
    size_t len = kInferAcceptBytes;
    if (a.flags & kInferFlagTrace) {
        putU64(buf + len, a.serverClockUs);
        len += kInferAcceptTraceBytes;
    }
    ch.sendBytes(buf, len);
}

InferAccept
recvInferAccept(net::Channel &ch)
{
    uint8_t buf[kInferAcceptBytes];
    ch.recvBytes(buf, sizeof(buf));
    InferAccept a;
    a.status = InferStatus(buf[0]);
    a.depth = getU16(buf + 2);
    a.flags = getU16(buf + 4) & kKnownFlags;
    a.sessionId = getU64(buf + 8);
    if (a.flags & kInferFlagTrace) {
        uint8_t trailer[kInferAcceptTraceBytes];
        ch.recvBytes(trailer, sizeof(trailer));
        a.serverClockUs = getU64(trailer);
    }
    return a;
}

void
sendInferOp(net::Channel &ch, InferOp op)
{
    uint8_t b = uint8_t(op);
    ch.sendBytes(&b, 1);
}

InferOp
recvInferOp(net::Channel &ch)
{
    uint8_t b = 0;
    ch.recvBytes(&b, 1);
    return InferOp(b);
}

void
sendInferTag(net::Channel &ch, uint32_t tag)
{
    uint8_t buf[4];
    putU32(buf, tag);
    ch.sendBytes(buf, sizeof(buf));
}

uint32_t
recvInferTag(net::Channel &ch)
{
    uint8_t buf[4];
    ch.recvBytes(buf, sizeof(buf));
    return getU32(buf);
}

void
sendCommitCount(net::Channel &ch, uint16_t count)
{
    uint8_t buf[2];
    putU16(buf, count);
    ch.sendBytes(buf, sizeof(buf));
}

uint16_t
recvCommitCount(net::Channel &ch)
{
    uint8_t buf[2];
    ch.recvBytes(buf, sizeof(buf));
    return getU16(buf);
}

void
sendShareVectorPacked(net::Channel &ch, const uint64_t *shares, size_t n,
                      unsigned width)
{
    IRONMAN_CHECK(width >= 1 && width <= 64);
    const uint64_t mask =
        width == 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;
    std::vector<uint8_t> buf(net::packedLaneBytes(n, width), 0);
    for (size_t i = 0; i < n; ++i)
        net::putBitsLE(buf.data(), i * size_t(width), width,
                       shares[i] & mask);
    ch.sendBytes(buf.data(), buf.size());
}

void
recvShareVectorPacked(net::Channel &ch, uint64_t *shares, size_t n,
                      unsigned width)
{
    IRONMAN_CHECK(width >= 1 && width <= 64);
    std::vector<uint8_t> buf(net::packedLaneBytes(n, width));
    ch.recvBytes(buf.data(), buf.size());
    for (size_t i = 0; i < n; ++i)
        shares[i] = net::getBitsLE(buf.data(), i * size_t(width), width);
}

} // namespace ironman::infer
