/**
 * @file
 * The two runs over one script.
 *
 * Timed run: closed-loop clients drive an in-process
 * serve::StudyService (the object stack3d-serve wraps, no sockets)
 * for whole rounds of the script; nothing but the clock and
 * getrusage() looks inside.
 *
 * Traced run: the same script and client count, but the benchmark
 * makes each layer call itself, in the order the service and
 * core::run*Study make them, with a span around each call.
 */

#ifndef PERFBENCH_RUNS_HH
#define PERFBENCH_RUNS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "serve/result_cache.hh"
#include "serve/service.hh"
#include "script.hh"
#include "spans.hh"

namespace perfbench {

/** One handle() call as the client saw it. */
struct Response
{
    stack3d::serve::ServeResult::Status status =
        stack3d::serve::ServeResult::Status::Error;
    bool cached = false;
    bool coalesced = false;
    double latency_s = 0.0;
    std::string report;   ///< the report JSON (ok only)
    std::string error;
};

struct TimedRound
{
    std::vector<Response> responses;   ///< by script index
    double wall_s = 0.0;
    double cpu_s = 0.0;                ///< process user + sys
    double peak_heap_mib = 0.0;        ///< peak live heap in the round
    stack3d::obs::CounterSet counters; ///< StudyService::counters()
};

stack3d::serve::ServiceOptions serviceOptions(const Shape &shape);

/**
 * Run whole rounds, at least one, until @p seconds of round wall time
 * have passed. Every round runs against the fresh service @p set_up
 * returns; set-up is not round time.
 */
std::vector<TimedRound> runTimed(
    const Script &script, double seconds,
    const std::function<std::unique_ptr<stack3d::serve::StudyService>()>
        &set_up);

/** Exact work counts of the cold requests of a traced round. */
struct WorkCounts
{
    std::uint64_t cells = 0;
    std::uint64_t records = 0;          ///< generated
    std::uint64_t decode_batches = 0;
    std::uint64_t replay_records = 0;
    std::uint64_t replay_batches = 0;   ///< as the engine reports it
    std::uint64_t tag_probes = 0;
    std::uint64_t solves = 0;
    std::uint64_t warm_solves = 0;
    std::uint64_t cg_iterations = 0;
    std::uint64_t v_cycles = 0;
    std::uint64_t smoother_sweeps = 0;
    double cell_iterations = 0.0;       ///< mesh cells x CG iterations
    std::uint64_t uops = 0;

    void add(const WorkCounts &other);
};

struct TracedRequest
{
    std::string report;     ///< computed (owner) or read from cache
    bool cache_hit = false;
    WorkCounts counts;      ///< owner only
    std::string error;
};

struct TracedRound
{
    std::vector<TracedRequest> requests;   ///< by script index
    double wall_s = 0.0;
    stack3d::serve::CacheStats cache;
};

/**
 * Replay @p rounds rounds of the script layer by layer, recording
 * spans into @p log (request ids are round * size + index).
 */
std::vector<TracedRound> runTraced(const Script &script,
                                   unsigned rounds, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_RUNS_HH
