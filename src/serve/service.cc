#include "serve/service.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/digest.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/timing.hh"
#include "core/study_json.hh"
#include "obs/provenance.hh"

namespace stack3d {
namespace serve {

namespace {

/** Set by requestFlightDump() (async-signal-safe), consumed by
 *  pollFlightDump() at the next watchdog tick or request arrival. */
std::atomic<bool> g_flight_dump_requested{false};

const char *
statusName(ServeResult::Status status)
{
    switch (status) {
      case ServeResult::Status::Ok:
        return "ok";
      case ServeResult::Status::Rejected:
        return "rejected";
      case ServeResult::Status::Timeout:
        return "timeout";
      case ServeResult::Status::Error:
        break;
    }
    return "error";
}

/** Assemble the NDJSON response line around the raw report bytes. */
std::string
renderLine(const ServeResult &result, const std::string &id)
{
    std::string line = "{\"schema_version\":" +
                       std::to_string(obs::kSchemaVersion);
    if (!id.empty())
        line += ",\"id\":\"" + JsonWriter::escape(id) + "\"";
    if (!result.trace_id.empty())
        line += ",\"trace_id\":\"" +
                JsonWriter::escape(result.trace_id) + "\"";
    switch (result.status) {
      case ServeResult::Status::Ok:
        line += ",\"status\":\"ok\",\"cached\":";
        line += result.cached ? "true" : "false";
        line += ",\"digest\":\"" + result.digest_hex + "\"";
        // Splice the stored bytes verbatim: a cache hit's report is
        // byte-identical to the miss that produced it.
        line += ",\"report\":" + result.report_json;
        break;
      case ServeResult::Status::Error:
        line += ",\"status\":\"error\",\"error\":\"" +
                JsonWriter::escape(result.error) + "\"";
        break;
      case ServeResult::Status::Rejected:
        line += ",\"status\":\"rejected\",\"error\":\"" +
                JsonWriter::escape(result.error) +
                "\",\"retry_after_ms\":" +
                std::to_string(result.retry_after_ms);
        break;
      case ServeResult::Status::Timeout:
        line += ",\"status\":\"timeout\",\"error\":\"" +
                JsonWriter::escape(result.error) + "\"";
        if (!result.digest_hex.empty())
            line += ",\"digest\":\"" + result.digest_hex + "\"";
        break;
    }
    line += "}";
    return line;
}

} // anonymous namespace

StudyService::StudyService(const ServiceOptions &options)
    : _options(options), _pool(options.workers),
      _cache(options.cache_entries, options.cache_dir),
      _flight(options.flight_entries)
{
    // Telemetry wiring: every read surface (the {"op":"stats"} line,
    // the /metrics exposition, the exit-stats JSON) pulls through the
    // registry, so they can never disagree about keys or semantics.
    _registry.addProvider(
        [this](obs::CounterSet &c) { appendServeCounters(c); });
    _registry.registerHistogram("serve.latency.hit_s", &_hit_latency);
    _registry.registerHistogram("serve.latency.cold_s",
                                &_cold_latency);
    // Point-in-time values; everything untagged is a monotonic
    // counter (Prometheus # TYPE and rate() depend on the split).
    _registry.tagGauge("serve.draining");
    _registry.tagGauge("serve.in_flight");
    _registry.tagGauge("serve.cache.entries");
    _registry.tagGauge("serve.memo.entries");
    _registry.tagGauge("serve.memo.bytes");
    _registry.tagGauge("serve.queue.high_water");
    // Quantiles are point-in-time estimates; the latency .count and
    // .total_s keys stay counters (rate() over them is meaningful).
    _registry.tagGauge("serve.latency.hit.p50_ms");
    _registry.tagGauge("serve.latency.hit.p95_ms");
    _registry.tagGauge("serve.latency.hit.p99_ms");
    _registry.tagGauge("serve.latency.cold.p50_ms");
    _registry.tagGauge("serve.latency.cold.p95_ms");
    _registry.tagGauge("serve.latency.cold.p99_ms");
    _registry.tagGauge("serve.pool.threads");
    _registry.tagGauge("serve.pool.queue_high_water");
    _registry.tagGauge("serve.fault.points");

    // The watchdog needs asynchronous executions to observe; in
    // inline mode (workers == 0) handle() is the execution.
    if (_options.workers > 0 && _options.watchdog_factor > 0 &&
        _options.watchdog_interval_ms > 0) {
        _watchdog_pool = std::make_unique<exec::ThreadPool>(1);
        _watchdog_done =
            _watchdog_pool->submit([this] { watchdogLoop(); });
    }
}

StudyService::~StudyService()
{
    drain();
    if (_watchdog_pool) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _watchdog_stop = true;
        }
        _watchdog_cv.notify_all();
        _watchdog_done.get();
        _watchdog_pool.reset();
    }
    std::lock_guard<std::mutex> lock(_trace_mutex);
    if (_trace)
        _trace->uninstall();
}

std::string
StudyService::execute(const Request &request,
                      const CancelToken *cancel)
{
    core::RunOptions opts = request.options;
    if (_options.max_study_threads != 0 &&
        (opts.threads == 0 ||
         opts.threads > _options.max_study_threads)) {
        opts.threads = _options.max_study_threads;
    }
    // Server mode: results stream back as JSON; nothing should write
    // to the console mid-request.
    opts.verbosity = core::Verbosity::Silent;
    opts.progress = nullptr;
    opts.cancel = cancel;
    opts.memo = _options.cache_entries > 0 ? &_memo : nullptr;

    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("study").value(studyKindName(request.kind));
    switch (request.kind) {
      case StudyKind::Memory: {
        auto report = core::runMemoryStudy(opts, request.memory);
        noteReplayCounters(report.meta.counters);
        w.key("meta").beginObject();
        core::writeMetaJson(w, report.meta);
        w.endObject();
        w.key("payload");
        core::writeMemoryStudyResultJson(w, report.payload);
        break;
      }
      case StudyKind::Logic: {
        auto report = core::runLogicStudy(opts, request.logic);
        w.key("meta").beginObject();
        core::writeMetaJson(w, report.meta);
        w.endObject();
        w.key("payload");
        core::writeLogicStudyResultJson(w, report.payload);
        break;
      }
      case StudyKind::StackThermal: {
        auto report =
            core::runStackThermalStudy(opts, request.stack_thermal);
        w.key("meta").beginObject();
        core::writeMetaJson(w, report.meta);
        w.endObject();
        w.key("payload");
        core::writeStackThermalResultJson(w, report.payload);
        break;
      }
      case StudyKind::Sensitivity: {
        auto report =
            core::runConductivitySensitivity(opts,
                                             request.sensitivity);
        w.key("meta").beginObject();
        core::writeMetaJson(w, report.meta);
        w.endObject();
        w.key("payload");
        core::writeSensitivityResultJson(w, report.payload);
        break;
      }
    }
    w.endObject();
    return os.str();
}

void
StudyService::finalizeLocked(Execution &exec)
{
    if (exec.finalized)
        return;
    exec.finalized = true;
    _pending.erase(exec.digest);
    --_in_flight;
}

unsigned
StudyService::retryHintLocked() const
{
    // Rough time for the backlog to clear: how many worker "waves"
    // are queued ahead, times the cold p95. Before any cold sample
    // exists, assume a nominal 100 ms study.
    double p95_s = _cold_latency.snapshot().quantile(0.95);
    if (p95_s <= 0.0)
        p95_s = 0.1;
    unsigned workers = std::max(_options.workers, 1u);
    double waves =
        std::max(double(_in_flight) / double(workers), 1.0);
    double ms = 1e3 * p95_s * waves;
    return unsigned(std::min(std::max(ms, 1.0), 60000.0));
}

std::string
StudyService::makeTraceId()
{
    // An atomic sequence, not a clock or RNG: unique within the
    // process, cheap, and deterministic-replay friendly.
    std::uint64_t n =
        _trace_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "t-%llx",
                  static_cast<unsigned long long>(n));
    return std::string(buf);
}

void
StudyService::recordOutcome(const std::string &study,
                            const ServeResult &result,
                            double latency_ms)
{
    FlightEntry entry;
    entry.trace_id = result.trace_id;
    entry.digest_hex = result.digest_hex;
    entry.study = study;
    entry.status = statusName(result.status);
    entry.cached = result.cached;
    entry.coalesced = result.coalesced;
    entry.latency_ms = latency_ms;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        entry.queue_depth = _in_flight;
    }
    _flight.note(std::move(entry));
}

void
StudyService::requestFlightDump()
{
    g_flight_dump_requested.store(true, std::memory_order_relaxed);
}

void
StudyService::pollFlightDump()
{
    if (g_flight_dump_requested.exchange(false,
                                         std::memory_order_relaxed))
        _flight.dumpToLog("sigusr1");
}

ServeResult
StudyService::handle(const std::string &line)
{
    WallTimer timer;
    ServeResult result;
    pollFlightDump();

    Request request;
    std::string error;
    if (!parseRequest(line, request, error)) {
        result.status = ServeResult::Status::Error;
        result.error = error;
        result.trace_id = request.trace_id.empty()
                              ? makeTraceId()
                              : request.trace_id;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            ++_n_requests;
            ++_n_errors;
        }
        result.line = renderLine(result, request.id);
        recordOutcome("", result, 1e3 * timer.seconds());
        return result;
    }

    if (request.trace_id.empty())
        request.trace_id = makeTraceId();
    result.trace_id = request.trace_id;
    const std::string study = studyKindName(request.kind);

    obs::Span span("serve/" + study + " " + request.trace_id,
                   "serve");
    std::uint64_t digest = request.digest();
    result.digest_hex = digestHex(digest);
    // Every waiter times out against its own arrival-anchored
    // deadline, owner or coalesced alike.
    const auto deadline_tp =
        CancelToken::Clock::now() +
        std::chrono::milliseconds(request.deadline_ms);

    std::shared_ptr<Execution> exec;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        ++_n_requests;

        std::string cached;
        if (_cache.tryGet(digest, cached)) {
            result.status = ServeResult::Status::Ok;
            result.cached = true;
            result.report_json = std::move(cached);
            ++_n_ok;
            ++_n_hit;
            double elapsed = timer.seconds();
            _hit_seconds += elapsed;
            _hit_latency.record(elapsed);
        }
        if (result.cached) {
            // renderLine/recordOutcome outside the lock.
        } else {
            auto pending = _pending.find(digest);
            if (pending != _pending.end()) {
                exec = pending->second;
                result.coalesced = true;
                ++_n_coalesced;
            } else {
                unsigned limit = std::max(_options.workers, 1u) +
                                 _options.queue_limit;
                if (_draining || _in_flight >= limit) {
                    result.status = ServeResult::Status::Rejected;
                    result.retry_after_ms = retryHintLocked();
                    result.error =
                        _draining ? "server draining"
                                  : "server overloaded (" +
                                        std::to_string(_in_flight) +
                                        " requests in flight)";
                    ++_n_rejected;
                } else {
                    ++_in_flight;
                    _in_flight_high_water =
                        std::max(_in_flight_high_water, _in_flight);
                    exec = std::make_shared<Execution>();
                    exec->digest = digest;
                    exec->label = study;
                    exec->trace_id = request.trace_id;
                    exec->cancel = std::make_shared<CancelToken>(
                        request.deadline_ms);
                    exec->promise =
                        std::make_shared<std::promise<std::string>>();
                    exec->future =
                        exec->promise->get_future().share();
                    exec->started = CancelToken::Clock::now();
                    _pending[digest] = exec;
                    owner = true;
                }
            }
        }
    }
    if (result.cached ||
        result.status == ServeResult::Status::Rejected) {
        result.line = renderLine(result, request.id);
        recordOutcome(study, result, 1e3 * timer.seconds());
        return result;
    }

    if (owner) {
        // The task, not the owning handle() call, retires the
        // execution: an owner abandoning at its deadline frees the
        // admission slot immediately (finalize is once-only), and a
        // finished-but-abandoned result still reaches the cache.
        std::shared_ptr<Execution> task_exec = exec;
        (void)_pool.submit([this, request, task_exec] {
            try {
                std::string report =
                    execute(request, task_exec->cancel.get());
                {
                    std::lock_guard<std::mutex> lock(_mutex);
                    _cache.put(task_exec->digest, report);
                    finalizeLocked(*task_exec);
                }
                task_exec->promise->set_value(std::move(report));
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(_mutex);
                    finalizeLocked(*task_exec);
                }
                task_exec->promise->set_exception(
                    std::current_exception());
            }
        });
    }

    std::future_status wait_status = std::future_status::ready;
    if (request.deadline_ms > 0)
        wait_status = exec->future.wait_until(deadline_tp);
    else
        exec->future.wait();

    if (wait_status != std::future_status::ready) {
        // Deadline expired with the execution still running: answer
        // now; the execution stops at its next cancel checkpoint.
        if (owner)
            exec->cancel->cancel();
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (owner)
                finalizeLocked(*exec);
            ++_n_timeouts;
        }
        result.status = ServeResult::Status::Timeout;
        result.error = "deadline of " +
                       std::to_string(request.deadline_ms) +
                       " ms expired";
        result.line = renderLine(result, request.id);
        recordOutcome(study, result, 1e3 * timer.seconds());
        return result;
    }

    try {
        result.report_json = exec->future.get();
        result.status = ServeResult::Status::Ok;
        std::lock_guard<std::mutex> lock(_mutex);
        ++_n_ok;
        ++_n_cold;
        double elapsed = timer.seconds();
        _cold_seconds += elapsed;
        _cold_latency.record(elapsed);
    } catch (const CancelledError &e) {
        // The execution observed cancellation (its own deadline, or
        // drain) before we hit ours: still a timeout to the client.
        result.status = ServeResult::Status::Timeout;
        result.error = e.what();
        std::lock_guard<std::mutex> lock(_mutex);
        ++_n_timeouts;
    } catch (const std::exception &e) {
        result.status = ServeResult::Status::Error;
        result.error = e.what();
        std::lock_guard<std::mutex> lock(_mutex);
        ++_n_errors;
    }
    result.line = renderLine(result, request.id);
    recordOutcome(study, result, 1e3 * timer.seconds());
    return result;
}

void
StudyService::drain()
{
    using Clock = CancelToken::Clock;
    bool first = false;
    unsigned backlog = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        first = !_draining;
        _draining = true;
        backlog = _in_flight;
    }
    // Idle teardowns (every test/bench service destruction) stay
    // silent; a drain with work to wind down is worth a log line.
    if (first && backlog > 0)
        logLine(LogLevel::Info, "drain started",
                {{"in_flight", std::to_string(backlog)}});
    auto waitIdle = [this](Clock::time_point until) {
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(_mutex);
                if (_in_flight == 0)
                    return true;
            }
            if (Clock::now() >= until)
                return false;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    };
    auto budget =
        std::chrono::milliseconds(_options.drain_timeout_ms);
    if (waitIdle(Clock::now() + budget)) {
        if (first && backlog > 0)
            logLine(LogLevel::Info, "drain finished",
                    {{"cancelled", "0"}});
        return;
    }
    // Out of patience: cancel the stragglers and wait them out (a
    // cancelled study stops within one cell / CG iteration).
    unsigned cancelled = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (auto &entry : _pending) {
            entry.second->cancel->cancel();
            ++cancelled;
            logLine(LogLevel::Info, "drain cancelling execution",
                    {{"trace_id", entry.second->trace_id},
                     {"digest", digestHex(entry.second->digest)},
                     {"study", entry.second->label}});
        }
    }
    (void)waitIdle(Clock::now() + budget);
    logLine(LogLevel::Info, "drain finished",
            {{"cancelled", std::to_string(cancelled)}});
}

void
StudyService::noteOversizedLine()
{
    // Not counted as a request or an error: the line was bounced at
    // the transport before it ever became one.
    std::lock_guard<std::mutex> lock(_mutex);
    ++_n_line_overflows;
}

void
StudyService::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_watchdog_stop) {
        _watchdog_cv.wait_for(
            lock, std::chrono::milliseconds(
                      _options.watchdog_interval_ms));
        if (_watchdog_stop)
            break;
        lock.unlock();
        pollFlightDump();
        lock.lock();
        double p99_s = _cold_latency.snapshot().quantile(0.99);
        if (p99_s <= 0.0)
            continue;   // no cold baseline yet
        double limit_s = p99_s * double(_options.watchdog_factor);
        auto now = CancelToken::Clock::now();
        bool flagged_now = false;
        for (auto &entry : _pending) {
            Execution &exec = *entry.second;
            double run_s =
                std::chrono::duration<double>(now - exec.started)
                    .count();
            if (exec.flagged || run_s <= limit_s)
                continue;
            exec.flagged = true;
            flagged_now = true;
            ++_n_watchdog_flagged;
            char run_buf[32], limit_buf[32];
            std::snprintf(run_buf, sizeof(run_buf), "%.3f", run_s);
            std::snprintf(limit_buf, sizeof(limit_buf), "%.3f",
                          limit_s);
            // Info, not warn: warn() is captured into in-flight
            // study reports, which must stay deterministic.
            logLine(LogLevel::Info,
                    "serve watchdog: execution over limit",
                    {{"trace_id", exec.trace_id},
                     {"digest", digestHex(exec.digest)},
                     {"study", exec.label},
                     {"run_s", run_buf},
                     {"limit_s", limit_buf},
                     {"factor",
                      std::to_string(_options.watchdog_factor)}});
        }
        if (flagged_now) {
            // Context for the flag: what the daemon just did.
            lock.unlock();
            _flight.dumpToLog("watchdog");
            lock.lock();
        }
    }
}

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n &&
           s.compare(s.size() - n, n, suffix) == 0;
}

} // anonymous namespace

void
StudyService::noteReplayCounters(const obs::CounterSet &counters)
{
    // The study runner emits one set per stack option under
    // "mem.<option>."; the daemon-level view is the sum over options
    // and over requests (monotonic, so rate() works).
    double batches = 0.0, probes = 0.0;
    for (const auto &entry : counters.scalars()) {
        if (entry.first.compare(0, 4, "mem.") != 0)
            continue;
        if (endsWith(entry.first, ".replay.batches"))
            batches += entry.second;
        else if (endsWith(entry.first, ".tag_probe.probes"))
            probes += entry.second;
    }
    std::lock_guard<std::mutex> lock(_mutex);
    _replay_batches += batches;
    _tag_probes += probes;
}

void
StudyService::appendServeCounters(obs::CounterSet &c) const
{
    obs::Histogram::Snapshot hit = _hit_latency.snapshot();
    obs::Histogram::Snapshot cold = _cold_latency.snapshot();
    core::MemoryRowMemo::Stats memo = _memo.stats();
    std::lock_guard<std::mutex> lock(_mutex);
    c.set("serve.requests", double(_n_requests));
    c.set("serve.ok", double(_n_ok));
    c.set("serve.errors", double(_n_errors));
    c.set("serve.rejected", double(_n_rejected));
    c.set("serve.timeouts", double(_n_timeouts));
    c.set("serve.line_overflows", double(_n_line_overflows));
    c.set("serve.draining", _draining ? 1.0 : 0.0);
    c.set("serve.in_flight", double(_in_flight));
    c.set("serve.watchdog.flagged", double(_n_watchdog_flagged));
    c.set("serve.flight.noted", double(_flight.noted()));
    c.set("serve.cache.hits", double(_cache.stats().hits));
    c.set("serve.cache.misses", double(_cache.stats().misses));
    c.set("serve.cache.evictions", double(_cache.stats().evictions));
    c.set("serve.cache.disk_hits", double(_cache.stats().disk_hits));
    c.set("serve.cache.disk_writes",
          double(_cache.stats().disk_writes));
    c.set("serve.cache.corrupt", double(_cache.stats().corrupt));
    c.set("serve.cache.scrubbed", double(_cache.stats().scrubbed));
    c.set("serve.cache.entries", double(_cache.size()));
    c.set("serve.coalesced", double(_n_coalesced));
    c.set("serve.memo.hits", double(memo.hits));
    c.set("serve.memo.misses", double(memo.misses));
    c.set("serve.memo.evictions", double(memo.evictions));
    c.set("serve.memo.entries", double(memo.entries));
    c.set("serve.memo.bytes", double(memo.bytes));
    c.set("serve.study.mem.replay.batches", _replay_batches);
    c.set("serve.study.mem.tag_probe.probes", _tag_probes);
    c.set("serve.queue.high_water", double(_in_flight_high_water));
    c.set("serve.latency.hit.count", double(_n_hit));
    c.set("serve.latency.hit.total_s", _hit_seconds);
    c.set("serve.latency.hit.p50_ms", 1e3 * hit.quantile(0.50));
    c.set("serve.latency.hit.p95_ms", 1e3 * hit.quantile(0.95));
    c.set("serve.latency.hit.p99_ms", 1e3 * hit.quantile(0.99));
    c.set("serve.latency.cold.count", double(_n_cold));
    c.set("serve.latency.cold.total_s", _cold_seconds);
    c.set("serve.latency.cold.p50_ms", 1e3 * cold.quantile(0.50));
    c.set("serve.latency.cold.p95_ms", 1e3 * cold.quantile(0.95));
    c.set("serve.latency.cold.p99_ms", 1e3 * cold.quantile(0.99));
    _pool.appendCounters(c, "serve.pool.");
    // Fault-injection accounting, so a chaos run's schedule is
    // visible and two same-seed runs can be diffed.
    std::vector<FaultPointInfo> faults = FaultRegistry::snapshot();
    c.set("serve.fault.points", double(faults.size()));
    for (const FaultPointInfo &point : faults) {
        c.set("serve.fault." + point.name + ".checks",
              double(point.checks));
        c.set("serve.fault." + point.name + ".fires",
              double(point.fires));
    }
}

obs::CounterSet
StudyService::counters() const
{
    return _registry.counters();
}

std::string
StudyService::statsJson() const
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("schema_version").value(unsigned(obs::kSchemaVersion));
    w.key("status").value("ok");
    w.key("counters");
    obs::writeCountersJson(w, _registry.counters());
    w.key("histograms").beginObject();
    for (const auto &entry : _registry.histogramSnapshots()) {
        w.key(entry.first);
        entry.second.writeJson(w);
    }
    w.endObject();
    w.endObject();
    return os.str();
}

std::string
StudyService::healthJson() const
{
    bool draining;
    unsigned in_flight;
    std::uint64_t requests, flagged;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        draining = _draining;
        in_flight = _in_flight;
        requests = _n_requests;
        flagged = _n_watchdog_flagged;
    }
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("schema_version").value(unsigned(obs::kSchemaVersion));
    w.key("status").value("ok");
    w.key("health").beginObject();
    w.key("ok").value(!draining);
    w.key("draining").value(draining);
    w.key("in_flight").value(in_flight);
    w.key("workers").value(_options.workers);
    w.key("queue_limit").value(_options.queue_limit);
    w.key("requests").value(std::uint64_t(requests));
    w.key("watchdog_flagged").value(std::uint64_t(flagged));
    w.key("tracing").value(obs::tracingActive());
    w.endObject();
    w.endObject();
    return os.str();
}

std::string
StudyService::flightJson() const
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("schema_version").value(unsigned(obs::kSchemaVersion));
    w.key("status").value("ok");
    w.key("flight").beginObject();
    w.key("capacity").value(std::uint64_t(_flight.capacity()));
    w.key("noted").value(_flight.noted());
    w.key("entries");
    _flight.writeJson(w);
    w.endObject();
    w.endObject();
    return os.str();
}

bool
StudyService::traceStart(std::string &error)
{
    std::lock_guard<std::mutex> lock(_trace_mutex);
    if (_trace && _trace->installed()) {
        error = "tracing already active";
        return false;
    }
    _trace = std::make_unique<obs::TraceCollector>();
    _trace->install();
    logLine(LogLevel::Info, "tracing started");
    return true;
}

bool
StudyService::traceStop(const std::string &path, std::string &message)
{
    std::lock_guard<std::mutex> lock(_trace_mutex);
    if (!_trace || !_trace->installed()) {
        message = "tracing not active";
        return false;
    }
    _trace->uninstall();
    std::ofstream out(path);
    if (!out) {
        message = "cannot write trace file '" + path + "'";
        return false;
    }
    _trace->writeChromeJson(out);
    std::size_t events = _trace->eventCount();
    message = "wrote " + std::to_string(events) + " events to " +
              path;
    logLine(LogLevel::Info, "tracing stopped",
            {{"path", path},
             {"events", std::to_string(events)}});
    return true;
}

} // namespace serve
} // namespace stack3d
