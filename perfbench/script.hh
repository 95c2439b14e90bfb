/**
 * @file
 * Workload request scripts. A script is the fixed list of wire
 * request lines one round of a workload sends, generated from the
 * benchmark seed alone, plus the service shape it runs against.
 *
 * Rounds: every round replays the same script against a freshly
 * constructed StudyService, so each round does exactly the same
 * simulated work and every work count repeats exactly.
 */

#ifndef PERFBENCH_SCRIPT_HH
#define PERFBENCH_SCRIPT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Request sizes: the measured workloads, or the smoke test's. */
enum class Size { Full, Smoke };

/** How the closed loop and the service are configured. */
struct Shape
{
    unsigned clients = 1;        ///< closed-loop client threads
    unsigned workers = 1;        ///< ServiceOptions::workers
    std::size_t cache_entries = 64;
};

struct Script
{
    std::string workload;
    Shape shape;
    /** One wire request per entry, in send order. */
    std::vector<std::string> lines;
    /**
     * twin[i]: index of the first request with request i's digest
     * (i itself for a first occurrence). Derived from
     * serve::parseRequest + Request::digest, as the service keys its
     * cache.
     */
    std::vector<std::size_t> twin;
    /** Requests that are the first of their digest. */
    std::size_t distinct = 0;
    /** Share of requests that exactly repeat an earlier one. */
    double repeat_share = 0.0;
    /**
     * Share of the traces cold memory requests generate whose
     * (kernel, seed, depth, scale) an earlier request already
     * generated: what a cross-request trace memo could skip.
     */
    double trace_reuse_share = 0.0;
    /** Traces cold memory requests generate per round. */
    std::size_t traces = 0;
};

/**
 * Build one round's script. @p study_threads goes into every
 * request's options.threads (results do not depend on it).
 * @return false with @p error set for an unknown workload or a
 * script the service would refuse.
 */
[[nodiscard]] bool makeScript(const std::string &workload,
                              std::uint64_t seed, Size size,
                              unsigned study_threads, Script &out,
                              std::string &error);

} // namespace perfbench

#endif // PERFBENCH_SCRIPT_HH
