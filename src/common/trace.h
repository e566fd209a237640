/**
 * @file
 * Per-request tracing: the read-side twin of common/metrics.h.
 *
 * Where the metrics registry answers "how much, in aggregate", this
 * recorder answers "where inside ONE request did the time go": every
 * thread owns a fixed ring of span/instant events (begin time,
 * duration, literal label, request tag, byte count, wire-propagated
 * trace id) that the warm paths stamp with plain relaxed atomic
 * stores — no allocation, no locks, no syscalls beyond the clock read
 * — behind one cached IRONMAN_TRACE check, so recording is
 * constitutionally free when off (DESIGN.md invariant 17 extends to
 * tracing: it never changes wire bytes, output shares, or warm-path
 * allocation counts).
 *
 * The cold path drains every thread ring into Chrome trace-event JSON
 * (chrome://tracing / Perfetto: `ph:"X"` duration events, `ph:"i"`
 * instants; pid = MPC party, tid = recording thread), one event per
 * line so tools/trace_merge can align two parties' exports textually.
 * Cross-party alignment rides the handshake: the infer hello/accept
 * carries a 64-bit trace id + sampled bit (kInferFlagTrace) and the
 * accept returns the server's clock sample, which together with the
 * client's measured RTT gives the clock-offset estimate embedded in
 * the export (`otherData.clock_offset_us`).
 *
 * Rings are seqlock-stamped: writers bump a per-ring sequence with a
 * release store after the event words land, readers validate each
 * slot's stamp and discard events overwritten mid-read — export can
 * run concurrently with live sessions and stays TSan-clean (every
 * shared word is an atomic).
 *
 * Enablement: IRONMAN_TRACE=1/on in the environment, or
 * setEnabled(true) from a --trace FILE flag (cold path, before
 * traffic). Labels MUST be string literals — the ring stores the
 * pointer.
 *
 * Session tier (the flight recorder): note() writes one event to the
 * same ring whether or not tracing is on or the context is sampled,
 * so a session thread always carries its last opcodes. A
 * SessionScope names the ring's session; dumpSession() renders the
 * calling session's last kSessionEvents notes as a postmortem when it
 * unwinds through a fault, dumpAllSessions() renders every open
 * session (SIGUSR1, /flight) while they keep running, and lastDump()
 * returns the most recent dump. Notes export as `ph:"i"` instants in
 * cat `session`.
 */

#ifndef IRONMAN_COMMON_TRACE_H
#define IRONMAN_COMMON_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ironman::trace {

namespace detail {
/** One-time read of IRONMAN_TRACE (default off), overridable by
 * setEnabled(). Defined in trace.cpp. */
std::atomic<bool> &enabledFlag();

struct Ring;
/** The calling thread's ring, registering it on first use (mutex +
 * deque, cold path — never called from a record site while off). */
Ring &threadRing();

void emitEvent(uint8_t kind, const char *name, const char *cat,
               uint64_t t_us, uint64_t dur_us, uint32_t tag,
               uint64_t arg);
} // namespace detail

/** Process-wide recording switch: one relaxed load per record. */
inline bool
enabled()
{
    return detail::enabledFlag().load(std::memory_order_relaxed);
}

/** Cold-path override (the --trace FILE flag). */
void setEnabled(bool on);

/** MPC party id for the export's pid field (0 = client, 1 = server;
 * processes hosting both daemons are still one party). */
void setParty(int party);
int party();

/**
 * Wire-propagated per-thread trace context: the 64-bit id the infer
 * handshake negotiated (0 = unset) and whether this request chain is
 * sampled. An unsampled context mutes recording on this thread
 * without touching the process switch.
 */
struct Context
{
    uint64_t traceId = 0;
    bool sampled = true;
};

void setContext(uint64_t trace_id, bool sampled);
Context context();

/** Fresh pseudo-random trace id (splitmix64 over clock + counter). */
uint64_t newTraceId(uint64_t salt = 0);

/** Literal name for this thread in the export's metadata ("session",
 * "refill", ...). Cold path. */
void setThreadLabel(const char *label);

/**
 * Clock-offset estimate: peer (server) clock minus local clock, in
 * microseconds, from the hello->accept RTT midpoint (Cristian). The
 * value is embedded in this party's export so trace_merge can shift
 * the peer's timeline onto ours.
 */
void setPeerClockOffsetUs(int64_t offset_us);
int64_t peerClockOffsetUs();

/** Point event (ph:"i"). @p name/@p cat MUST be literals. */
inline void
instant(const char *name, const char *cat = nullptr, uint32_t tag = 0,
        uint64_t arg = 0);

/**
 * Completed span with explicit bounds (ph:"X") — for spans whose
 * begin predates the emitting scope (client submit->reconstruct,
 * sampled engine phases timed by an existing Timer).
 */
void emitSpan(const char *name, const char *cat, uint64_t t0_us,
              uint64_t dur_us, uint32_t tag = 0, uint64_t arg = 0);

/** Monotonic microseconds (same clock as metrics::nowUs()). */
uint64_t nowUs();

/**
 * RAII duration span (ph:"X"). Construction takes the begin stamp,
 * destruction emits the one ring write. Overhead when tracing is off:
 * one relaxed load and a branch. @p name/@p cat MUST be literals.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *cat = nullptr,
                  uint32_t tag = 0, uint64_t arg = 0)
    {
        if (enabled()) {
            name_ = name;
            cat_ = cat;
            tag_ = tag;
            arg_ = arg;
            t0_ = nowUs();
        }
    }

    ~Span()
    {
        if (name_)
            emitSpan(name_, cat_, t0_, nowUs() - t0_, tag_, arg_);
    }

    /** Late-bound payload size (byte deltas known only at scope end). */
    void setArg(uint64_t arg) { arg_ = arg; }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_ = nullptr; ///< null = tracing was off at entry
    const char *cat_ = nullptr;
    uint64_t t0_ = 0;
    uint64_t arg_ = 0;
    uint32_t tag_ = 0;
};

inline void
instant(const char *name, const char *cat, uint32_t tag, uint64_t arg)
{
    if (enabled())
        detail::emitEvent(1, name, cat, nowUs(), 0, tag, arg);
}

// ---------------------------------------------------------------------------
// Cold-path export
// ---------------------------------------------------------------------------

/**
 * Drain every thread ring into a Chrome trace-event JSON document
 * (one event per line). Safe to call while sessions record; events
 * overwritten mid-read are discarded, never torn into the output.
 */
std::string exportChromeTrace();

/** exportChromeTrace() to @p path; false if the file can't open. */
bool writeChromeTrace(const std::string &path);

/**
 * Snapshot the current export as the "most recent completed session"
 * document the /trace endpoint serves. The inference server calls
 * this when a traced session closes.
 */
void retainExport();

/** The last retained export ("" if none yet). */
std::string lastRetainedExport();

// ---------------------------------------------------------------------------
// Session tier: the always-on flight recorder
// ---------------------------------------------------------------------------

/** Session notes a dump renders per session (the newest ones). */
constexpr size_t kSessionEvents = 64;

/** Record one session-tier event on the calling thread's ring, even
 * when tracing is off or unsampled. Allocation-free once the ring
 * exists; @p label MUST be a literal. */
void note(const char *label, uint32_t tag = 0, uint64_t bytes = 0);

/** Names the calling thread's ring as session @p sid while in scope.
 * Opening starts the session: earlier notes on a reused ring never
 * appear in its dumps; a closed scope drops out of dumpAllSessions(). */
class SessionScope
{
  public:
    explicit SessionScope(uint64_t sid);
    ~SessionScope();

    SessionScope(const SessionScope &) = delete;
    SessionScope &operator=(const SessionScope &) = delete;
};

/** Postmortem of the calling thread's session: a header naming it
 * and @p reason plus its last kSessionEvents notes, written to
 * stderr, retained as lastDump() and counted in
 * net_flight_dumps_total. */
void dumpSession(const char *reason);

/** The same for every open session under one header (the SIGUSR1 /
 * /flight snapshot); returns the text. Sessions keep recording while
 * it reads; overwritten slots are skipped, never torn. */
std::string dumpAllSessions(const char *reason);

/** Text of the most recent dump ("" if none yet). */
std::string lastDump();

/** Drop all recorded events (tests; not thread-safe vs. recorders). */
void resetForTest();

} // namespace ironman::trace

#endif // IRONMAN_COMMON_TRACE_H
