/**
 * @file
 * Blocking client of the COT service: connects a SocketChannel, runs
 * the wire handshake and the base-OT substitute setup, then streams
 * extension batches — each extend*() call sends one Op::Extend and
 * runs this side's half of FerretCotSender/Receiver::extendInto
 * against the server's pooled engine.
 *
 * The client picks its role at connect time: Role::Receiver (the
 * common case — the service hands out (choice, t) correlations under
 * the server's delta) or Role::Sender (the client holds delta and q;
 * the server plays receiver). Outputs are bit-identical to a direct
 * in-process engine pair fed the same session seed (the multi-session
 * test pins this down), so everything downstream of a Channel keeps
 * working unchanged over the real transport.
 */

#ifndef IRONMAN_SVC_COT_CLIENT_H
#define IRONMAN_SVC_COT_CLIENT_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "net/socket_channel.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "svc/wire.h"

namespace ironman::svc {

class CotClient
{
  public:
    struct Options
    {
        Role role = Role::Receiver;
        uint64_t setupSeed = 1;
        int threads = 1;
    };

    /**
     * Handshake over an already-connected channel (from tcpConnect /
     * unixConnect / socketChannelPair). Throws net::WireError{Fatal}
     * when the server rejects the hello (a reject is a verdict, not a
     * hiccup — retrying the same hello gets the same answer).
     */
    CotClient(std::unique_ptr<net::SocketChannel> ch,
              const ot::FerretParams &params, Options opt);

    /** Convenience: connect + handshake over loopback/remote TCP. */
    static std::unique_ptr<CotClient>
    connectTcp(const std::string &host, uint16_t port,
               const ot::FerretParams &params, Options opt);

    /** Convenience: connect + handshake over a Unix-domain path. */
    static std::unique_ptr<CotClient>
    connectUnix(const std::string &path, const ot::FerretParams &params,
                Options opt);

    ~CotClient();

    CotClient(const CotClient &) = delete;
    CotClient &operator=(const CotClient &) = delete;

    uint64_t sessionId() const { return sid; }
    Role role() const { return opt_.role; }
    const ot::FerretParams &params() const { return p; }

    /** Fresh correlations one extension yields. */
    size_t usableOts() const { return p.usableOts(); }

    /**
     * One receiver-role extension: usableOts() choice bits into
     * @p choice and as many blocks into @p t.
     */
    void extendRecv(BitVec &choice, Block *t);

    /** One sender-role extension: usableOts() strings into @p q. */
    void extendSend(Block *q);

    /** Session offset (sender role only). */
    const Block &delta() const;

    /** Extensions run so far. */
    uint64_t extensionsRun() const { return extensions; }

    /** Wire bytes this endpoint pushed (payload, transport-independent). */
    uint64_t bytesSent() const { return ch->bytesSent(); }

    /** End the session politely; further extend*() calls are bugs. */
    void close();

  private:
    std::unique_ptr<net::SocketChannel> ch;
    ot::FerretParams p;
    Options opt_;
    uint64_t sid = 0;
    bool closed = false;
    Rng rng;
    Block delta_;
    std::unique_ptr<ot::FerretCotSender> sender;
    std::unique_ptr<ot::FerretCotReceiver> receiver;
    uint64_t extensions = 0;
};

} // namespace ironman::svc

#endif // IRONMAN_SVC_COT_CLIENT_H
