#include "net/metrics_endpoint.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "net/socket_channel.h"

namespace ironman::net {

namespace {

/** Path of "GET /x HTTP/1.0" ("" when the client sent no parseable
 * request line — the bare /dev/tcp reader, which gets /metrics). */
std::string
requestPath(const char *buf, size_t len)
{
    const std::string req(buf, len);
    if (req.compare(0, 4, "GET ") != 0)
        return "";
    const size_t start = 4;
    size_t end = req.find(' ', start);
    const size_t eol = req.find('\r', start);
    if (end == std::string::npos || (eol != std::string::npos && eol < end))
        end = eol;
    if (end == std::string::npos || end <= start)
        return "";
    return req.substr(start, end - start);
}

} // namespace

MetricsEndpoint::~MetricsEndpoint()
{
    stop();
}

uint16_t
MetricsEndpoint::listenTcp(uint16_t port)
{
    const int fd = net::tcpListen(port);
    listenFd_.store(fd);
    const uint16_t bound = net::tcpListenPort(fd);
    thread_ = std::thread([this] { acceptLoop(); });
    return bound;
}

void
MetricsEndpoint::stop()
{
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    if (thread_.joinable())
        thread_.join();
}

void
MetricsEndpoint::acceptLoop()
{
    // One connection at a time, serially: a scrape is a few KB of
    // text, and serializing keeps the endpoint incapable of becoming
    // a load source against the daemons it observes.
    for (;;) {
        const int listener = listenFd_.load(std::memory_order_acquire);
        if (listener < 0)
            return;
        const int fd = net::acceptOn(listener);
        if (fd < 0)
            return; // listener closed by stop()
        // Read the request line, with a short timeout so a silent
        // client cannot park the loop. A bare /dev/tcp reader sends
        // nothing — it gets the /metrics body, the pre-routing
        // behavior every existing scrape script relies on.
        struct timeval tv = {0, 200 * 1000};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        char scratch[1024];
        const ssize_t got = ::recv(fd, scratch, sizeof(scratch), 0);
        const std::string path =
            requestPath(scratch, got > 0 ? size_t(got) : 0);

        const char *status = "200 OK";
        const char *ctype = "text/plain; version=0.0.4";
        std::string body;
        if (path.empty() || path == "/" || path == "/metrics") {
            body = metrics::Registry::instance().renderText();
        } else if (path == "/metrics.json") {
            ctype = "application/json";
            body = metrics::Registry::instance().renderJson();
        } else if (path == "/trace") {
            // The last completed traced session; a live export when
            // no session has been retained yet.
            ctype = "application/json";
            body = trace::lastRetainedExport();
            if (body.empty())
                body = trace::exportChromeTrace();
        } else if (path == "/flight") {
            body = trace::lastDump();
            if (body.empty())
                body = "no flight dump recorded yet\n";
        } else {
            status = "404 Not Found";
            ctype = "text/plain";
            body = "unknown path: " + path + "\n";
        }
        char head[160];
        std::snprintf(head, sizeof(head),
                      "HTTP/1.0 %s\r\n"
                      "Content-Type: %s\r\n"
                      "Content-Length: %zu\r\n\r\n",
                      status, ctype, body.size());
        std::string reply = head;
        reply += body;
        size_t off = 0;
        while (off < reply.size()) {
            const ssize_t n = ::send(fd, reply.data() + off,
                                     reply.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                break; // scraper went away; nothing to salvage
            off += size_t(n);
        }
        ::close(fd);
    }
}

} // namespace ironman::net
