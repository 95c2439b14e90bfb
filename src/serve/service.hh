/**
 * @file
 * The study service behind stack3d-serve: takes request lines,
 * schedules study execution on a stack3d::exec pool, memoizes
 * results in a ResultCache, and renders NDJSON response lines.
 *
 * Scheduling model:
 *  - Executions run on an exec::ThreadPool of `workers` threads
 *    (0 = inline on the calling thread), so `workers` studies
 *    compute concurrently; each study may itself fan cells out on
 *    its own internal pool (request options.threads, capped by
 *    max_study_threads).
 *  - Admission is bounded: at most workers + queue_limit requests
 *    may be in flight (computing or queued). handle() blocks its
 *    caller until the result is ready — the bound is what creates
 *    backpressure on the connection handlers — and requests beyond
 *    the bound are rejected immediately with status "rejected" and a
 *    retry_after_ms backoff hint sized from the queue depth and the
 *    cold-latency p95.
 *  - Duplicate in-flight requests coalesce: the second arrival of a
 *    digest waits on the first execution's future instead of
 *    computing (and does not consume an admission slot).
 *
 * Deadlines: a request may carry deadline_ms. Past it the caller
 * gets status "timeout", the admission slot is reclaimed
 * immediately, and the abandoned execution's CancelToken is
 * cancelled so the study stops at its next checkpoint instead of
 * burning a worker. Coalesced waiters time out against their own
 * deadlines without disturbing the shared execution; if the owning
 * execution itself observes cancellation, every waiter sees
 * "timeout". A finished-but-abandoned execution still populates the
 * cache — the work is never thrown away.
 *
 * Lifecycle: drain() stops admission ("draining" rejections), waits
 * out in-flight work within drain_timeout_ms, then cancels
 * stragglers. A watchdog (workers > 0) flags executions running
 * longer than watchdog_factor × cold p99 to stderr and
 * serve.watchdog.flagged.
 *
 * Caching model: the serialized report (study + meta + payload JSON,
 * compact) is the cached unit. A cache hit splices the stored bytes
 * into the response envelope verbatim, so hit and miss responses
 * carry byte-identical reports. The digest excludes threads and
 * verbosity — the determinism guarantee makes results independent of
 * them — so e.g. a 4-thread re-run of a cached 1-thread request hits.
 */

#ifndef STACK3D_SERVE_SERVICE_HH
#define STACK3D_SERVE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "exec/pool.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "serve/flight_recorder.hh"
#include "serve/request.hh"
#include "serve/result_cache.hh"

namespace stack3d {
namespace serve {

/** StudyService configuration. */
struct ServiceOptions
{
    /** Concurrent study executions (0 = run inline in handle()). */
    unsigned workers = 2;

    /** Extra requests admitted beyond `workers` before rejecting. */
    unsigned queue_limit = 16;

    /** In-memory result-cache entries (0 disables caching). */
    std::size_t cache_entries = 64;

    /** On-disk result store directory ("" = memory only). */
    std::string cache_dir;

    /** Cap on a request's options.threads (0 = leave uncapped). */
    unsigned max_study_threads = 8;

    /** Request-line byte cap both transports enforce. */
    std::size_t max_line_bytes = std::size_t(1) << 20;

    /** drain(): budget to let in-flight work finish uncancelled. */
    unsigned drain_timeout_ms = 5000;

    /** Watchdog flags executions over factor × cold p99 (0 = off). */
    unsigned watchdog_factor = 4;

    /** Watchdog scan period. */
    unsigned watchdog_interval_ms = 250;

    /** Flight-recorder ring capacity (last N request summaries). */
    std::size_t flight_entries = 128;
};

/** Outcome of one handled request line. */
struct ServeResult
{
    enum class Status { Ok, Error, Rejected, Timeout };

    Status status = Status::Error;
    bool cached = false;      ///< served from the result cache
    bool coalesced = false;   ///< shared an in-flight execution
    std::string trace_id;     ///< client-supplied or generated
    std::string digest_hex;   ///< "0x..." (empty when unparsable)
    std::string report_json;  ///< the cached unit (ok only)
    std::string error;        ///< message (error/rejected/timeout)
    unsigned retry_after_ms = 0;   ///< backoff hint (rejected only)

    /** The full NDJSON response line (no trailing newline). */
    std::string line;
};

/** The request scheduler + cache. Thread-safe. */
class StudyService
{
  public:
    explicit StudyService(const ServiceOptions &options);
    ~StudyService();

    StudyService(const StudyService &) = delete;
    StudyService &operator=(const StudyService &) = delete;

    /**
     * Handle one request line end to end; blocks until the response
     * is ready (or the request's deadline expires). Callable from
     * any thread.
     */
    ServeResult handle(const std::string &line);

    /**
     * Stop admitting (new requests get a "draining" rejection), give
     * in-flight executions drain_timeout_ms to finish, then cancel
     * the rest and wait for them to stop. Idempotent; called by the
     * transports on shutdown and by the destructor.
     */
    void drain();

    /** Count one transport-rejected oversized request line. */
    void noteOversizedLine();

    const ServiceOptions &options() const { return _options; }

    /**
     * Snapshot of the serve.* counters (including cache stats).
     * Pulled through the registry, so the wire {"op":"stats"}, the
     * /metrics exposition, and the exit-stats JSON all see one
     * coherent set of keys.
     */
    obs::CounterSet counters() const;

    /** The telemetry hub (providers, instruments, metric kinds). */
    const obs::Registry &registry() const { return _registry; }

    /**
     * {"op":"stats"} payload: the full counter snapshot plus the
     * latency histogram snapshots, as one NDJSON response line.
     */
    std::string statsJson() const;

    /** {"op":"health"}: a cheap liveness/readiness summary line. */
    std::string healthJson() const;

    /** {"op":"flight"}: the flight-recorder ring as a response line. */
    std::string flightJson() const;

    /**
     * Start a tracing session ({"op":"trace","action":"start"}).
     * @return false with @p error set when one is already active.
     */
    bool traceStart(std::string &error);

    /**
     * Stop the active session and write Chrome trace JSON to @p path.
     * @return false with @p message set when none is active or the
     * file cannot be written; true with a summary message otherwise.
     */
    bool traceStop(const std::string &path, std::string &message);

    /**
     * Ask the service to dump its flight recorder to the log at the
     * next safe point (watchdog tick or request arrival). Async-
     * signal-safe — this is the SIGUSR1 handler's body.
     */
    static void requestFlightDump();

  private:
    /**
     * One admitted execution. Shared between the owning handle()
     * call, the pool task computing it, coalesced waiters, the
     * watchdog, and drain() — whichever of task or abandoning owner
     * gets there first finalizes (releases the admission slot and
     * the pending entry, exactly once).
     */
    struct Execution
    {
        std::uint64_t digest = 0;
        std::string label;      ///< study name, for watchdog reports
        std::string trace_id;   ///< owner's trace id, for watchdog logs
        std::shared_ptr<CancelToken> cancel;
        std::shared_ptr<std::promise<std::string>> promise;
        std::shared_future<std::string> future;
        CancelToken::Clock::time_point started;
        bool finalized = false;
        bool flagged = false;   ///< watchdog warned already
    };

    /** Run the study and serialize its report (the cached unit). */
    std::string execute(const Request &request,
                        const CancelToken *cancel);

    /** Release slot + pending entry exactly once (_mutex held). */
    void finalizeLocked(Execution &exec);

    /** Backoff hint for a rejection (_mutex held). */
    unsigned retryHintLocked() const;

    /** Periodic scan for overdue executions (watchdog task body). */
    void watchdogLoop();

    /** "t-<hex>" from an atomic sequence (no wallclock, no rand). */
    std::string makeTraceId();

    /** Append the serve.* scalar counters (the registry provider). */
    void appendServeCounters(obs::CounterSet &out) const;

    /** Fold a memory-study report's replay/tag-probe counters into
     *  the serve.study.mem.* totals (takes _mutex). */
    void noteReplayCounters(const obs::CounterSet &counters);

    /** Note one terminal request outcome in the flight recorder. */
    void recordOutcome(const std::string &study,
                       const ServeResult &result, double latency_ms);

    /** Honor a pending requestFlightDump() (log dump), if any. */
    void pollFlightDump();

    ServiceOptions _options;
    exec::ThreadPool _pool;

    mutable std::mutex _mutex;
    /** Admitted executions (computing or queued), bounded. */
    unsigned _in_flight = 0;
    unsigned _in_flight_high_water = 0;
    /** digest -> the execution already running it. */
    std::map<std::uint64_t, std::shared_ptr<Execution>> _pending;
    ResultCache _cache;
    bool _draining = false;

    // serve.* counters (guarded by _mutex).
    std::uint64_t _n_requests = 0;
    std::uint64_t _n_ok = 0;
    std::uint64_t _n_errors = 0;
    std::uint64_t _n_rejected = 0;
    std::uint64_t _n_coalesced = 0;
    std::uint64_t _n_timeouts = 0;
    std::uint64_t _n_line_overflows = 0;
    std::uint64_t _n_watchdog_flagged = 0;
    double _hit_seconds = 0.0;
    double _cold_seconds = 0.0;
    std::uint64_t _n_hit = 0;
    std::uint64_t _n_cold = 0;
    /** Replay-path totals folded out of memory-study reports, so the
     *  daemon's /metrics shows how much trace-replay work it has
     *  done. */
    double _replay_batches = 0.0;
    double _tag_probes = 0.0;

    /**
     * Latency instruments (seconds). Lock-free: record() happens on
     * the request path without touching _mutex, and a quantile query
     * is a bucket walk over a snapshot — the O(n log n) copy-and-sort
     * the old sample ring paid under _mutex is gone (BM_StatsSnapshot
     * pins the cost).
     */
    obs::Histogram _hit_latency;
    obs::Histogram _cold_latency;

    /** Telemetry hub; providers wired in the constructor. */
    obs::Registry _registry;

    /** Last-N request summaries ({"op":"flight"}, SIGUSR1 dumps). */
    FlightRecorder _flight;

    /** Source of generated trace ids ("t-1", "t-2", ...). */
    std::atomic<std::uint64_t> _trace_seq{0};

    /**
     * Runtime tracing session ({"op":"trace"}). The collector is kept
     * alive (uninstalled) after a stop rather than destroyed: a
     * recording thread may still be inside a record() call when the
     * stop arrives, and uninstall-then-keep makes that race benign.
     */
    mutable std::mutex _trace_mutex;
    std::unique_ptr<obs::TraceCollector> _trace;

    // Watchdog (only armed when workers > 0 and factor > 0). Its
    // pool must outlive the loop task; both torn down in ~StudyService
    // before _pool.
    std::condition_variable _watchdog_cv;
    bool _watchdog_stop = false;
    std::unique_ptr<exec::ThreadPool> _watchdog_pool;
    std::future<void> _watchdog_done;
};

} // namespace serve
} // namespace stack3d

#endif // STACK3D_SERVE_SERVICE_HH
