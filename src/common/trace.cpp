#include "common/trace.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <vector>

#include "common/metrics.h"

namespace ironman::trace {

namespace detail {

/**
 * One thread's event ring. Slots are 8 atomic words wide:
 *   [0] stamp   — event index + 1, stored release AFTER the payload
 *   [1] kind<<32 | tag
 *   [2] t_us    [3] dur_us
 *   [4] name*   [5] cat*      (string literals)
 *   [6] traceId [7] arg (byte count etc.)
 * kind is 0 for a span, 1 for an instant, 2 for a session note.
 * Only the owning thread writes; readers validate each slot's stamp
 * and discard events overwritten mid-read (a wrapped writer re-stamps
 * with a larger index, so a stale read can't masquerade).
 */
struct Ring
{
    static constexpr size_t kCapacity = 2048;
    static constexpr size_t kWords = 8;

    std::atomic<uint64_t> seq{0}; ///< events ever recorded
    std::atomic<uint64_t> words[kCapacity * kWords] = {};
    std::atomic<const char *> label{nullptr};
    std::atomic<uint64_t> sid{0};   ///< open SessionScope's id, 0 = none
    std::atomic<uint64_t> notes{0}; ///< notes since the scope opened
    uint32_t tid = 0;
};

namespace {

bool
readEnabledFromEnv()
{
    const char *env = std::getenv("IRONMAN_TRACE");
    if (!env)
        return false;
    std::string v(env);
    for (char &c : v)
        c = char(std::tolower((unsigned char)c));
    return v == "1" || v == "on" || v == "true" || v == "yes";
}

struct Registry
{
    std::mutex m;
    std::deque<Ring> rings;       ///< stable addresses, live forever
    std::vector<Ring *> freeRings; ///< rings of exited threads
    std::string retained;          ///< last retained export
    std::string dump;              ///< last session dump
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::atomic<int> g_party{0};
std::atomic<int64_t> g_peerOffsetUs{0};

/**
 * Ring ownership follows the thread: at thread exit the lease returns
 * the ring to a free list so session-per-thread daemons reuse a
 * bounded set of rings instead of growing one per session. A reused
 * ring keeps its tid and retained events (they age out by overwrite),
 * which two threads may share SEQUENTIALLY, never concurrently.
 */
struct RingLease
{
    Ring *ring = nullptr;

    ~RingLease()
    {
        if (!ring)
            return;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.m);
        r.freeRings.push_back(ring);
    }
};

thread_local RingLease tl_lease;
thread_local Context tl_context;

} // namespace

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> on{readEnabledFromEnv()};
    return on;
}

Ring &
threadRing()
{
    if (!tl_lease.ring) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.m);
        if (!r.freeRings.empty()) {
            tl_lease.ring = r.freeRings.back();
            r.freeRings.pop_back();
        } else {
            Ring &ring = r.rings.emplace_back();
            ring.tid = uint32_t(r.rings.size());
            tl_lease.ring = &ring;
        }
    }
    return *tl_lease.ring;
}

namespace {

constexpr uint8_t kNoteKind = 2;

/** The one slot writer; the gates live in its callers. */
void
writeSlot(Ring &ring, uint8_t kind, const char *name, const char *cat,
          uint64_t t_us, uint64_t dur_us, uint32_t tag, uint64_t arg)
{
    const uint64_t idx = ring.seq.load(std::memory_order_relaxed);
    std::atomic<uint64_t> *w =
        ring.words + (idx % Ring::kCapacity) * Ring::kWords;
    // Invalidate the slot first so a concurrent reader can't validate
    // a half-written event against the OLD stamp.
    w[0].store(0, std::memory_order_relaxed);
    w[1].store(uint64_t(kind) << 32 | tag, std::memory_order_relaxed);
    w[2].store(t_us, std::memory_order_relaxed);
    w[3].store(dur_us, std::memory_order_relaxed);
    w[4].store(uint64_t(reinterpret_cast<uintptr_t>(name)),
               std::memory_order_relaxed);
    w[5].store(uint64_t(reinterpret_cast<uintptr_t>(cat)),
               std::memory_order_relaxed);
    w[6].store(tl_context.traceId, std::memory_order_relaxed);
    w[7].store(arg, std::memory_order_relaxed);
    w[0].store(idx + 1, std::memory_order_release);
    ring.seq.store(idx + 1, std::memory_order_release);
}

} // namespace

void
emitEvent(uint8_t kind, const char *name, const char *cat, uint64_t t_us,
          uint64_t dur_us, uint32_t tag, uint64_t arg)
{
    if (tl_context.sampled)
        writeSlot(threadRing(), kind, name, cat, t_us, dur_us, tag, arg);
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::enabledFlag().store(on, std::memory_order_relaxed);
}

void
setParty(int party)
{
    detail::g_party.store(party, std::memory_order_relaxed);
}

int
party()
{
    return detail::g_party.load(std::memory_order_relaxed);
}

void
setContext(uint64_t trace_id, bool sampled)
{
    detail::tl_context.traceId = trace_id;
    detail::tl_context.sampled = sampled;
}

Context
context()
{
    return detail::tl_context;
}

uint64_t
newTraceId(uint64_t salt)
{
    // splitmix64 over the clock, a process-wide counter and caller
    // salt: unique enough for correlating two parties' exports, with
    // zero reserved as "unset".
    static std::atomic<uint64_t> counter{0};
    uint64_t z = nowUs() ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                 (counter.fetch_add(1, std::memory_order_relaxed) + 1)
                     * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z ? z : 1;
}

void
setThreadLabel(const char *label)
{
    // No ring is materialised for a thread that never records: with
    // tracing off this is the same one-load early-out as a Span.
    if (enabled())
        detail::threadRing().label.store(label, std::memory_order_relaxed);
}

void
setPeerClockOffsetUs(int64_t offset_us)
{
    detail::g_peerOffsetUs.store(offset_us, std::memory_order_relaxed);
}

int64_t
peerClockOffsetUs()
{
    return detail::g_peerOffsetUs.load(std::memory_order_relaxed);
}

void
emitSpan(const char *name, const char *cat, uint64_t t0_us,
         uint64_t dur_us, uint32_t tag, uint64_t arg)
{
    if (enabled())
        detail::emitEvent(0, name, cat, t0_us, dur_us, tag, arg);
}

uint64_t
nowUs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

namespace {

struct ReadEvent
{
    uint64_t kindTag, t_us, dur_us, name, cat, traceId, arg;
    uint32_t tid;
};

/** Read event @p idx of @p ring; false if it was overwritten (or is
 * mid-write) — callers skip it, never emit it torn. */
bool
readSlot(const detail::Ring &ring, uint64_t idx, ReadEvent &e)
{
    using detail::Ring;
    const std::atomic<uint64_t> *w =
        ring.words + (idx % Ring::kCapacity) * Ring::kWords;
    if (w[0].load(std::memory_order_acquire) != idx + 1)
        return false;
    e.kindTag = w[1].load(std::memory_order_relaxed);
    e.t_us = w[2].load(std::memory_order_relaxed);
    e.dur_us = w[3].load(std::memory_order_relaxed);
    e.name = w[4].load(std::memory_order_relaxed);
    e.cat = w[5].load(std::memory_order_relaxed);
    e.traceId = w[6].load(std::memory_order_relaxed);
    e.arg = w[7].load(std::memory_order_relaxed);
    e.tid = ring.tid;
    return w[0].load(std::memory_order_acquire) == idx + 1;
}

void
appendEventJson(std::string &out, const ReadEvent &e, int pid,
                bool &first)
{
    const uint8_t kind = uint8_t(e.kindTag >> 32);
    const uint32_t tag = uint32_t(e.kindTag);
    const char *name =
        reinterpret_cast<const char *>(uintptr_t(e.name));
    const char *cat = reinterpret_cast<const char *>(uintptr_t(e.cat));
    if (!name)
        return; // torn slot: never emit a null label
    char line[512];
    int n = std::snprintf(
        line, sizeof(line),
        "%s{\"ph\":\"%s\",\"name\":\"%s\",\"cat\":\"%s\","
        "\"ts\":%llu,\"dur\":%llu,\"pid\":%d,\"tid\":%u",
        first ? "" : ",\n", kind == 0 ? "X" : "i", name,
        cat ? cat : "misc", (unsigned long long)e.t_us,
        (unsigned long long)e.dur_us, pid, e.tid);
    if (n < 0 || size_t(n) >= sizeof(line))
        return;
    out.append(line, size_t(n));
    if (kind != 0)
        out += ",\"s\":\"t\""; // instant scope: thread
    n = std::snprintf(line, sizeof(line),
                      ",\"args\":{\"tag\":%u,\"bytes\":%llu", tag,
                      (unsigned long long)e.arg);
    out.append(line, size_t(n));
    if (e.traceId) {
        n = std::snprintf(line, sizeof(line),
                          ",\"trace_id\":\"%016llx\"",
                          (unsigned long long)e.traceId);
        out.append(line, size_t(n));
    }
    out += "}}";
    first = false;
}

} // namespace

std::string
exportChromeTrace()
{
    using detail::Ring;
    detail::Registry &r = detail::registry();
    const int pid = party();
    std::string out;
    out.reserve(1 << 16);
    out += "{\n\"traceEvents\":[\n";
    bool first = true;

    std::vector<std::pair<uint32_t, const char *>> labels;
    {
        std::lock_guard<std::mutex> lock(r.m);
        for (Ring &ring : r.rings) {
            if (const char *label =
                    ring.label.load(std::memory_order_relaxed))
                labels.emplace_back(ring.tid, label);
            const uint64_t seq =
                ring.seq.load(std::memory_order_acquire);
            const uint64_t from =
                seq > Ring::kCapacity ? seq - Ring::kCapacity : 0;
            for (uint64_t idx = from; idx < seq; ++idx) {
                ReadEvent e;
                if (readSlot(ring, idx, e))
                    appendEventJson(out, e, pid, first);
            }
        }
    }
    for (const auto &[tid, label] : labels) {
        char line[256];
        const int n = std::snprintf(
            line, sizeof(line),
            "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
            "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
            first ? "" : ",\n", pid, tid, label);
        if (n > 0 && size_t(n) < sizeof(line)) {
            out.append(line, size_t(n));
            first = false;
        }
    }
    {
        char line[256];
        const int n = std::snprintf(
            line, sizeof(line),
            "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
            "\"tid\":0,\"args\":{\"name\":\"ironman party %d\"}}",
            first ? "" : ",\n", pid, pid);
        out.append(line, size_t(n));
    }
    char tail[256];
    const int n = std::snprintf(
        tail, sizeof(tail),
        "\n],\n\"otherData\":{\"schema\":\"ironman.trace.v1\","
        "\"party\":%d,\"clock_offset_us\":%lld}\n}\n",
        pid, (long long)peerClockOffsetUs());
    out.append(tail, size_t(n));
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string doc = exportChromeTrace();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) ==
                    doc.size();
    std::fclose(f);
    return ok;
}

void
retainExport()
{
    std::string doc = exportChromeTrace();
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.m);
    r.retained = std::move(doc);
}

std::string
lastRetainedExport()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.m);
    return r.retained;
}

// ---------------------------------------------------------------------------
// Session tier
// ---------------------------------------------------------------------------

void
note(const char *label, uint32_t tag, uint64_t bytes)
{
    detail::Ring &ring = detail::threadRing();
    detail::writeSlot(ring, detail::kNoteKind, label, "session", nowUs(),
                      0, tag, bytes);
    ring.notes.store(ring.notes.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
}

SessionScope::SessionScope(uint64_t sid)
{
    detail::Ring &ring = detail::threadRing();
    ring.notes.store(0, std::memory_order_relaxed);
    ring.sid.store(sid, std::memory_order_relaxed);
}

SessionScope::~SessionScope()
{
    detail::threadRing().sid.store(0, std::memory_order_relaxed);
}

namespace {

/**
 * "session SID<what> last K/N events:" plus the ring's newest notes of
 * its current session (at most kSessionEvents), oldest first, with
 * timestamps relative to the oldest. The note count bounds the
 * backward scan, so an earlier session of a reused ring never shows.
 */
std::string
renderSession(const detail::Ring &ring, const std::string &what)
{
    using detail::Ring;
    const uint64_t notes = ring.notes.load(std::memory_order_relaxed);
    const uint64_t seq = ring.seq.load(std::memory_order_acquire);
    const uint64_t floor =
        seq > Ring::kCapacity ? seq - Ring::kCapacity : 0;
    ReadEvent found[kSessionEvents];
    size_t n = 0;
    for (uint64_t idx = seq; idx > floor && n < notes && n < kSessionEvents;
         --idx)
        if (readSlot(ring, idx - 1, found[n]) &&
            uint8_t(found[n].kindTag >> 32) == detail::kNoteKind)
            ++n;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "session %llu%s last %zu/%llu events:\n",
                  (unsigned long long)ring.sid.load(
                      std::memory_order_relaxed),
                  what.c_str(), n, (unsigned long long)notes);
    std::string out = line;
    for (size_t i = n; i-- > 0;) {
        const ReadEvent &e = found[i];
        std::snprintf(line, sizeof(line),
                      "  +%8lluus %-12s tag=%u bytes=%llu\n",
                      (unsigned long long)(e.t_us - found[n - 1].t_us),
                      reinterpret_cast<const char *>(uintptr_t(e.name)),
                      uint32_t(e.kindTag), (unsigned long long)e.arg);
        out += line;
    }
    return out;
}

void
retainDump(const std::string &text)
{
    std::fputs(text.c_str(), stderr);
    detail::Registry &r = detail::registry();
    {
        std::lock_guard<std::mutex> lock(r.m);
        r.dump = text;
    }
    static metrics::Counter &dumps =
        metrics::counter("net_flight_dumps_total");
    dumps.inc();
}

} // namespace

void
dumpSession(const char *reason)
{
    retainDump("flight recorder: " +
               renderSession(detail::threadRing(),
                             std::string(" unwound (") + reason + ");"));
}

std::string
dumpAllSessions(const char *reason)
{
    detail::Registry &r = detail::registry();
    std::string sessions;
    size_t live = 0;
    {
        std::lock_guard<std::mutex> lock(r.m);
        for (const detail::Ring &ring : r.rings)
            if (ring.sid.load(std::memory_order_relaxed) != 0) {
                sessions += " " + renderSession(ring, ":");
                ++live;
            }
    }
    char head[160];
    std::snprintf(head, sizeof(head),
                  "flight recorder: on-demand dump (%s); %zu live "
                  "session ring(s):\n",
                  reason, live);
    const std::string text = head + sessions;
    retainDump(text);
    return text;
}

std::string
lastDump()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.m);
    return r.dump;
}

void
resetForTest()
{
    using detail::Ring;
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.m);
    for (Ring &ring : r.rings) {
        ring.seq.store(0, std::memory_order_relaxed);
        for (size_t i = 0; i < Ring::kCapacity; ++i)
            ring.words[i * Ring::kWords].store(
                0, std::memory_order_relaxed);
    }
    r.retained.clear();
}

} // namespace ironman::trace
