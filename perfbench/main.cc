/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload memory|thermal|logic|session --seed N
 *             --seconds S --trace 0|1 [--size full|smoke]
 *             [--clients N] [--study-threads N] [--pinned FILE]
 *             [--out DIR]
 *
 * --trace 0 runs the timed run for S seconds and prints the
 * end-to-end metrics. --trace 1 runs the timed run for S/2 seconds,
 * then replays the same script layer by layer for S/2 seconds and
 * prints the per-layer metrics, a folded per-layer table, and (with
 * --out) a Chrome trace-event file. Both check every answer; the
 * last stdout line is one JSON object, and the exit code is 0 only
 * when every correctness gate passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/digest.hh"
#include "common/json.hh"
#include "common/json_parse.hh"
#include "core/memory_study.hh"
#include "exec/pool.hh"
#include "runs.hh"

namespace perfbench {
namespace {

using stack3d::JsonValue;
using stack3d::JsonWriter;
using Status = stack3d::serve::ServeResult::Status;
using Clock = std::chrono::steady_clock;

/** Memory-hierarchy options each memory study replays a trace on. */
constexpr std::uint64_t kOptions = stack3d::core::kStackOptions.size();

/** Set-ups timed before each round; setup_s is their median. */
constexpr unsigned kSetUpsPerRound = 16;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    unsigned clients = 0;         ///< 0 = the workload's own
    unsigned study_threads = 1;
    std::string pinned;
    std::string out_dir;
};

bool
parseArgs(int argc, char **argv, Args &a, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--size" && (v == "full" || v == "smoke"))
                a.size = v == "full" ? Size::Full : Size::Smoke;
            else if (flag == "--clients")
                a.clients = unsigned(std::stoul(v));
            else if (flag == "--study-threads")
                a.study_threads = unsigned(std::stoul(v));
            else if (flag == "--pinned")
                a.pinned = v;
            else if (flag == "--out")
                a.out_dir = v;
            else {
                error = "unknown argument " + flag + " " + v;
                return false;
            }
        } catch (const std::exception &) {
            error = "bad value for " + flag + ": " + v;
            return false;
        }
    }
    if (a.workload.empty() || !(a.seconds > 0.0)) {
        error = "--workload and a positive --seconds are required";
        return false;
    }
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** A metric as the last line reports it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Correctness gates: each failure is printed and counted. */
struct Gates
{
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            ++failed;
            std::cout << "gate FAIL " << what << "\n";
        }
    }
};

/** The report's payload bytes (meta carries wall times, so it is
 *  left out of every comparison). */
std::string
payloadOf(const std::string &report)
{
    static const std::string key = ",\"payload\":";
    std::size_t at = report.find(key);
    if (at == std::string::npos || report.empty())
        return std::string();
    return report.substr(at + key.size(),
                         report.size() - at - key.size() - 1);
}

/** Fields of a report the gates and metrics read. */
struct ReportFacts
{
    std::size_t cells = 0;
    double wall_seconds = 0.0;
    std::uint64_t records = 0;   ///< memory rows
    bool ok = false;
};

ReportFacts
factsOf(const std::string &report)
{
    ReportFacts f;
    JsonValue root;
    std::string error;
    if (!stack3d::parseJson(report, root, error))
        return f;
    const JsonValue *cells = root.findPath("meta.cells");
    const JsonValue *wall = root.findPath("meta.wall_seconds");
    if (!cells || !wall)
        return f;
    f.cells = cells->array.size();
    f.wall_seconds = wall->number;
    if (const JsonValue *rows = root.findPath("payload.rows"))
        for (const JsonValue &row : rows->array)
            if (const JsonValue *r = row.find("records"))
                f.records += std::uint64_t(r->number);
    f.ok = true;
    return f;
}

/** Exact work counts of one round: the ledger that is pinned. */
using Ledger = std::map<std::string, std::uint64_t>;

std::string
ledgerJson(const Ledger &ledger, const std::string &digest)
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("result_digest").value(digest);
    for (const auto &entry : ledger)
        w.key(entry.first).value(entry.second);
    w.endObject();
    return os.str();
}

std::string
resultDigest(const std::vector<std::string> &reports)
{
    stack3d::Fnv1aDigest d;
    for (const std::string &r : reports)
        d.mix(payloadOf(r));
    return stack3d::digestHex(d.value());
}

/** Pinned ledger of one workload for the default seed, if any. */
struct Pinned
{
    bool present = false;
    std::string result_digest;
    Ledger ledger;
};

bool
loadPinned(const Args &args, Pinned &out, std::string &error)
{
    if (args.pinned.empty() || args.size != Size::Full)
        return true;
    std::ifstream in(args.pinned);
    if (!in) {
        error = "cannot read " + args.pinned;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    JsonValue root;
    if (!stack3d::parseJson(text.str(), root, error)) {
        error = args.pinned + ": " + error;
        return false;
    }
    const JsonValue *seed = root.find("seed");
    const JsonValue *w = root.findPath("workloads." + args.workload);
    if (!seed || std::uint64_t(seed->number) != args.seed || !w)
        return true;
    out.present = true;
    for (const auto &field : w->object) {
        if (field.first == "result_digest")
            out.result_digest = field.second.string;
        else
            out.ledger[field.first] = std::uint64_t(field.second.number);
    }
    return true;
}

/** Compare a measured ledger with the pinned one, key by key. */
void
checkPinned(const Pinned &pinned, const Ledger &ledger,
            const std::string &digest, Gates &gates)
{
    if (!pinned.present)
        return;
    gates.check(digest == pinned.result_digest,
                "result_digest " + digest + " != pinned " +
                    pinned.result_digest);
    for (const auto &entry : ledger) {
        auto it = pinned.ledger.find(entry.first);
        if (it == pinned.ledger.end())
            continue;
        gates.check(entry.second == it->second,
                    "ledger " + entry.first + " " +
                        std::to_string(entry.second) + " != pinned " +
                        std::to_string(it->second));
    }
}

void
printProvenance(const Args &args, const Script &script)
{
    std::cout << "perfbench workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << " size="
              << (args.size == Size::Full ? "full" : "smoke")
              << " clients=" << script.shape.clients
              << " workers=" << script.shape.workers
              << " cache_entries=" << script.shape.cache_entries
              << " study_threads=" << args.study_threads << "\n"
              << "provenance nproc=" << stack3d::exec::ThreadPool::hardwareThreads()
              << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type="
              << PERFBENCH_BUILD_TYPE << " ipo=" << PERFBENCH_IPO
              << " march=" << (std::strlen(PERFBENCH_MARCH)
                                   ? PERFBENCH_MARCH
                                   : "default")
              << "\n"
              << "script requests=" << script.lines.size()
              << " distinct=" << script.distinct
              << " repeat_share=" << script.repeat_share
              << " traces=" << script.traces
              << " trace_reuse_share=" << script.trace_reuse_share
              << "\n";
}

// ---- timed run ---------------------------------------------------------

struct TimedSummary
{
    Ledger ledger;               ///< exact, identical every round
    std::string result_digest;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t hit = 0, coalesced = 0;   ///< over all rounds
    std::vector<double> latencies_s;
    std::vector<double> hit_latencies_s;
    std::vector<double> cold_waits_s;   ///< latency - meta.wall_seconds
    double wall_s = 0.0;
    double pool_stolen = 0.0, pool_sleeps = 0.0;
    std::vector<double> round_walls_s;
    std::vector<double> round_rps;          ///< ok responses / wall
    std::vector<double> round_cpu_per_req_s;
    std::vector<std::string> reports;   ///< round 0, by index
};

TimedSummary
checkTimed(const Script &script, const std::vector<TimedRound> &rounds,
           Gates &gates)
{
    TimedSummary s;
    const std::size_t n = script.lines.size();
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        const TimedRound &round = rounds[r];
        Ledger ledger;
        std::vector<std::string> reports(n);
        std::uint64_t ok = 0;
        ledger["requests"] = n;
        for (std::size_t i = 0; i < n; ++i) {
            const Response &resp = round.responses[i];
            ++s.attempted;
            s.latencies_s.push_back(resp.latency_s);
            if (resp.status != Status::Ok) {
                gates.check(false, "round " + std::to_string(r) +
                                       " request " + std::to_string(i) +
                                       " not ok: " + resp.error);
                continue;
            }
            ++ok;
            reports[i] = resp.report;
            if (resp.cached) {
                ++ledger["hit"];
                s.hit_latencies_s.push_back(resp.latency_s);
            } else if (resp.coalesced) {
                ++ledger["coalesced"];
            } else {
                ++ledger["cold"];
                ReportFacts f = factsOf(resp.report);
                gates.check(f.ok, "unreadable report for request " +
                                      std::to_string(i));
                ledger["cells"] += f.cells;
                ledger["records"] += f.records;
                s.cold_waits_s.push_back(resp.latency_s - f.wall_seconds);
            }
            const std::size_t twin = script.twin[i];
            if (twin != i)
                gates.check(resp.report == round.responses[twin].report,
                            "request " + std::to_string(i) +
                                " report differs from its twin " +
                                std::to_string(twin));
        }
        ledger["repeats"] = ledger["hit"] + ledger["coalesced"];
        s.hit += ledger["hit"];
        s.coalesced += ledger["coalesced"];
        // Which repeat hits and which coalesces depends on timing; the
        // rest of the ledger must not.
        ledger.erase("hit");
        ledger.erase("coalesced");
        // The service does not count replayed records; the engine's
        // replay.batches are every option cell's decode batches.
        const auto &c = round.counters;
        ledger["decode_batches"] =
            std::uint64_t(c.value("serve.study.mem.replay.batches")) /
            kOptions;
        ledger["tag_probes"] =
            std::uint64_t(c.value("serve.study.mem.tag_probe.probes"));
        ledger["cache_evictions"] =
            std::uint64_t(c.value("serve.cache.evictions"));
        std::string digest = resultDigest(reports);
        if (r == 0) {
            s.ledger = ledger;
            s.result_digest = digest;
            s.reports = reports;
            gates.check(ledger["cold"] == script.distinct,
                        "cold requests " + std::to_string(ledger["cold"]) +
                            " != distinct " +
                            std::to_string(script.distinct));
        } else {
            gates.check(digest == s.result_digest,
                        "round " + std::to_string(r) + " result_digest " +
                            digest + " != round 0 " + s.result_digest);
            gates.check(ledger == s.ledger,
                        "round " + std::to_string(r) +
                            " ledger differs from round 0");
        }
        s.ok += ok;
        s.wall_s += round.wall_s;
        s.round_walls_s.push_back(round.wall_s);
        s.round_rps.push_back(double(ok) / round.wall_s);
        s.round_cpu_per_req_s.push_back(round.cpu_s / double(n));
        std::printf("round %zu wall_s %.6f cpu_s %.6f\n", r, round.wall_s,
                    round.cpu_s);
        s.pool_stolen += c.value("serve.pool.stolen");
        s.pool_sleeps += c.value("serve.pool.sleeps");
    }
    return s;
}

// ---- traced run --------------------------------------------------------

struct TracedSummary
{
    Ledger ledger;
    WorkCounts counts;   ///< round 0
    std::uint64_t attempted = 0;
    std::vector<double> round_walls_s;
    stack3d::serve::CacheStats cache;   ///< round 0
};

Ledger
tracedLedger(const Script &script, const WorkCounts &c,
             const stack3d::serve::CacheStats &cache)
{
    const std::size_t n = script.lines.size();
    return {{"requests", n},
            {"cold", script.distinct},
            {"repeats", n - script.distinct},
            {"cells", c.cells},
            {"records", c.records},
            {"replay_records", c.replay_records},
            {"decode_batches", c.decode_batches},
            {"tag_probes", c.tag_probes},
            {"cache_evictions", cache.evictions},
            {"cache_hits", cache.hits},
            {"cg_iterations", c.cg_iterations},
            {"v_cycles", c.v_cycles},
            {"smoother_sweeps", c.smoother_sweeps},
            {"uops", c.uops}};
}

TracedSummary
checkTraced(const Script &script, const std::vector<TracedRound> &rounds,
            const TimedSummary &timed, const TimedRound &timed0,
            Gates &gates)
{
    TracedSummary s;
    const std::size_t n = script.lines.size();
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        const TracedRound &round = rounds[r];
        WorkCounts counts;
        for (std::size_t i = 0; i < n; ++i) {
            const TracedRequest &tr = round.requests[i];
            ++s.attempted;
            gates.check(tr.error.empty(), "traced request " +
                                              std::to_string(i) + ": " +
                                              tr.error);
            gates.check(payloadOf(tr.report) ==
                            payloadOf(timed.reports[i]),
                        "traced payload of request " + std::to_string(i) +
                            " differs from the service's");
            if (script.twin[i] != i)
                continue;
            counts.add(tr.counts);
            const Response &resp = timed0.responses[i];
            if (!resp.cached && !resp.coalesced)
                gates.check(tr.counts.cells ==
                                factsOf(resp.report).cells,
                            "traced cells of request " +
                                std::to_string(i) +
                                " differ from the service's");
        }
        gates.check(counts.replay_batches ==
                        kOptions * counts.decode_batches,
                    "engine replay.batches != options x decode batches");
        gates.check(counts.replay_records == kOptions * counts.records,
                    "engine records != options x generated records");
        gates.check(round.cache.hits == n - script.distinct &&
                        round.cache.misses == script.distinct,
                    "traced cache hits/misses differ from the script");
        Ledger ledger = tracedLedger(script, counts, round.cache);
        if (r == 0) {
            s.ledger = ledger;
            s.counts = counts;
            s.cache = round.cache;
        } else {
            gates.check(ledger == s.ledger,
                        "traced round " + std::to_string(r) +
                            " ledger differs from round 0");
        }
        s.round_walls_s.push_back(round.wall_s);
    }

    // The layer-by-layer replay did the service's work: same counts
    // wherever the service exposes them.
    for (const char *key : {"cold", "repeats", "cells", "records",
                            "decode_batches", "tag_probes",
                            "cache_evictions"})
        gates.check(s.ledger[key] == timed.ledger.at(key),
                    std::string("traced ") + key + " " +
                        std::to_string(s.ledger[key]) + " != service " +
                        std::to_string(timed.ledger.at(key)));
    return s;
}

/** Per-layer metrics plus the folded table, from the traced run. */
std::vector<Metric>
layerMetrics(const Script &script, const TimedSummary &timed,
             std::size_t timed_rounds, const TracedSummary &traced,
             const Folded &folded)
{
    const double requests =
        double(script.lines.size() * traced.round_walls_s.size());
    std::map<std::string, double> self;   // seconds, by span name
    for (const FoldedRow &row : folded.rows)
        self[row.name] += row.self_s;
    auto perReq = [&](const char *name, double scale) {
        return self[name] * scale / requests;
    };
    const WorkCounts &c = traced.counts;
    const double rounds = double(traced.round_walls_s.size());
    auto rate = [](double work, double seconds) {
        return seconds > 0.0 ? work / seconds : 0.0;
    };
    const stack3d::serve::CacheStats &cache = traced.cache;
    const double lookups = double(cache.hits + cache.misses);

    std::vector<Metric> m;
    m.push_back({"serve.parse_us", perReq("serve.parse", 1e6), "us/req"});
    m.push_back({"serve.digest_us", perReq("serve.digest", 1e6), "us/req"});
    m.push_back(
        {"serve.cache_get_us", perReq("serve.cache_get", 1e6), "us/req"});
    m.push_back(
        {"serve.cache_put_us", perReq("serve.cache_put", 1e6), "us/req"});
    m.push_back({"serve.cache_hit_ratio",
                 lookups > 0 ? double(cache.hits) / lookups : 0.0,
                 "fraction"});
    m.push_back({"serve.cache_evictions", double(cache.evictions), "count"});
    m.push_back({"serve.repeat_share", script.repeat_share, "fraction"});
    m.push_back({"serve.coalesced",
                 double(timed.coalesced) / double(timed_rounds), "count"});
    m.push_back({"serve.hit_us", 1e6 * median(timed.hit_latencies_s),
                 "us/hit"});
    m.push_back({"serve.wait_ms", 1e3 * median(timed.cold_waits_s), "ms"});
    m.push_back({"core.report_json_ms", perReq("core.report_json", 1e3),
                 "ms/req"});
    m.push_back({"core.cells", double(c.cells), "count"});
    m.push_back({"workloads.generate_ms",
                 perReq("workloads.generate", 1e3), "ms/req"});
    m.push_back({"workloads.records", double(c.records), "count"});
    m.push_back({"workloads.trace_reuse_share", script.trace_reuse_share,
                 "fraction"});
    m.push_back(
        {"trace.decode_ms", perReq("trace.decode", 1e3), "ms/req"});
    m.push_back({"trace.decode_batches", double(c.decode_batches), "count"});
    m.push_back(
        {"mem.hierarchy_ms", perReq("mem.hierarchy", 1e3), "ms/req"});
    m.push_back({"mem.replay_ms", perReq("mem.replay", 1e3), "ms/req"});
    m.push_back({"mem.replay_records", double(c.replay_records), "count"});
    m.push_back({"mem.refs_per_s",
                 rate(double(c.replay_records) * rounds, self["mem.replay"]),
                 "1/s"});
    m.push_back({"mem.tag_probes", double(c.tag_probes), "count"});
    m.push_back({"thermal.mesh_ms", perReq("thermal.mesh", 1e3), "ms/req"});
    m.push_back(
        {"thermal.solve_ms", perReq("thermal.solve", 1e3), "ms/req"});
    m.push_back({"thermal.cell_iters_per_s",
                 rate(c.cell_iterations * rounds, self["thermal.solve"]),
                 "1/s"});
    m.push_back({"thermal.cg_iterations", double(c.cg_iterations), "count"});
    m.push_back({"thermal.v_cycles", double(c.v_cycles), "count"});
    m.push_back(
        {"thermal.smoother_sweeps", double(c.smoother_sweeps), "count"});
    m.push_back({"thermal.warm_start_ratio",
                 c.solves ? double(c.warm_solves) / double(c.solves) : 0.0,
                 "fraction"});
    m.push_back({"floorplan.build_ms", perReq("floorplan.build", 1e3),
                 "ms/req"});
    m.push_back({"cpu.table4_ms", perReq("cpu.table4", 1e3), "ms/req"});
    m.push_back({"cpu.uops", double(c.uops), "count"});
    m.push_back({"cpu.uops_per_s",
                 rate(double(c.uops) * rounds, self["cpu.table4"]), "1/s"});
    m.push_back({"exec.pool_stolen",
                 timed.pool_stolen / double(timed_rounds), "count"});
    m.push_back({"exec.pool_sleeps",
                 timed.pool_sleeps / double(timed_rounds), "count"});
    m.push_back({"obs.trace_overhead_pct",
                 100.0 * (median(traced.round_walls_s) /
                              median(timed.round_walls_s) -
                          1.0),
                 "%"});
    m.push_back({"unattributed_ms",
                 1e3 * folded.unattributed_s / requests, "ms/req"});
    return m;
}

/** The folded table, by layer then span, and the purpose checks. */
void
printFolded(const Script &script, const Folded &folded,
            double requests, double overhead_pct)
{
    std::map<std::string, double> layer_self;
    double attributed = 0.0;
    for (const FoldedRow &row : folded.rows) {
        if (isWait(row.name))
            continue;
        layer_self[layerOf(row.name)] += row.self_s;
        attributed += row.self_s;
    }
    auto share = [&](double s) {
        return attributed > 0.0 ? 100.0 * s / attributed : 0.0;
    };
    std::printf("folded %-26s %9s %14s %9s\n", "span", "calls",
                "self_ms/req", "share_%");
    for (const auto &layer : layer_self) {
        for (const FoldedRow &row : folded.rows)
            if (!isWait(row.name) && layerOf(row.name) == layer.first)
                std::printf("folded %-26s %9llu %14.4f %9.2f\n",
                            row.name.c_str(),
                            static_cast<unsigned long long>(row.calls),
                            1e3 * row.self_s / requests,
                            share(row.self_s));
        std::printf("layer  %-26s %9s %14.4f %9.2f\n",
                    layer.first.c_str(), "", 1e3 * layer.second / requests,
                    share(layer.second));
    }
    for (const FoldedRow &row : folded.rows)
        if (isWait(row.name))
            std::printf("wait   %-26s %9llu %14.4f %9s\n", row.name.c_str(),
                        static_cast<unsigned long long>(row.calls),
                        1e3 * row.self_s / requests, "-");
    std::printf("unattributed_ms %.4f per request; obs.trace_overhead_pct "
                "%.2f\n",
                1e3 * folded.unattributed_s / requests, overhead_pct);

    // What each workload was chosen for.
    auto layers = [&](std::initializer_list<const char *> names) {
        double s = 0.0;
        for (const char *name : names)
            s += layer_self[name];
        return share(s);
    };
    const std::string &w = script.workload;
    if (w == "memory")
        std::printf("purpose workloads+trace+mem share %.1f%% (>= 80%%)\n",
                    layers({"workloads", "trace", "mem"}));
    else if (w == "thermal")
        std::printf("purpose thermal+floorplan share %.1f%% (>= 80%%)\n",
                    layers({"thermal", "floorplan"}));
    else if (w == "logic")
        std::printf("purpose cpu share %.1f%% (>= 60%%)\n",
                    layers({"cpu"}));
    else if (w == "session")
        std::printf("purpose repeat_share %.3f (median request is a cache "
                    "hit when > 0.5), trace_reuse_share %.3f (> 0)\n",
                    script.repeat_share, script.trace_reuse_share);
}

void
printMetric(const Metric &m)
{
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.key("value").valueExact(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

int
run(const Args &args)
{
    Script script;
    {
        std::string error;
        if (!makeScript(args.workload, args.seed, args.size,
                        args.study_threads, script, error)) {
            std::cerr << "perfbench: " << error << "\n";
            return 2;
        }
        if (args.clients)
            script.shape.clients = args.clients;
    }
    // Set-up: script generation and service construction. Each round
    // gets a fresh service; one set-up takes about a millisecond, so
    // it is timed kSetUpsPerRound times before every round and the
    // median over all of them is reported.
    std::vector<double> setup_s;
    bool same_script = true;
    auto setUp = [&] {
        std::unique_ptr<stack3d::serve::StudyService> service;
        for (unsigned k = 0; k < kSetUpsPerRound; ++k) {
            service.reset();   // tear-down is not set-up
            Clock::time_point t0 = Clock::now();
            Script again;
            std::string error;
            same_script &= makeScript(args.workload, args.seed, args.size,
                                      args.study_threads, again, error) &&
                           again.lines == script.lines;
            service = std::make_unique<stack3d::serve::StudyService>(
                serviceOptions(script.shape));
            setup_s.push_back(
                std::chrono::duration<double>(Clock::now() - t0).count());
        }
        return service;
    };
    Pinned pinned;
    {
        std::string error;
        if (!loadPinned(args, pinned, error)) {
            std::cerr << "perfbench: " << error << "\n";
            return 2;
        }
    }
    printProvenance(args, script);

    Gates gates;
    const double timed_seconds = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<TimedRound> rounds =
        runTimed(script, timed_seconds, setUp);
    TimedSummary timed = checkTimed(script, rounds, gates);
    gates.check(same_script, "the seed did not give the same script");
    std::cout << "timed rounds=" << rounds.size()
              << " requests=" << timed.attempted << " ok=" << timed.ok
              << " hit=" << timed.hit << " coalesced=" << timed.coalesced
              << " wall_s=" << timed.wall_s << "\n"
              << "result_digest " << timed.result_digest << "\n";

    std::vector<Metric> metrics;
    std::uint64_t attempted = timed.attempted;
    if (!args.trace) {
        checkPinned(pinned, timed.ledger, timed.result_digest, gates);
        std::cout << "ledger " << ledgerJson(timed.ledger, timed.result_digest)
                  << "\n";
        std::vector<double> lat = timed.latencies_s;
        std::sort(lat.begin(), lat.end());
        // The highest percentile with at least ten samples beyond it.
        std::size_t tail_at = lat.size() > 10 ? lat.size() - 11 : lat.size() - 1;
        std::vector<double> heap;
        for (const TimedRound &round : rounds)
            heap.push_back(round.peak_heap_mib);
        // Every round does the same work, so the median round stands
        // for the run; a burst of host load slows a round or two.
        metrics.push_back({"setup_s", median(setup_s), "s"});
        metrics.push_back(
            {"throughput_rps", median(timed.round_rps), "req/s"});
        metrics.push_back(
            {"latency_p50_ms", 1e3 * median(timed.latencies_s), "ms"});
        metrics.push_back({"latency_tail_ms", 1e3 * lat[tail_at], "ms"});
        metrics.push_back({"cpu_ms_per_req",
                           1e3 * median(timed.round_cpu_per_req_s), "ms"});
        metrics.push_back({"peak_heap_mb", median(heap), "MiB"});
        for (const Metric &m : metrics) {
            printMetric(m);
            if (m.name == "latency_tail_ms")
                std::printf("latency_tail_percentile %.2f (%zu of %zu "
                            "samples beyond)\n",
                            100.0 * double(tail_at + 1) / double(lat.size()),
                            lat.size() - tail_at - 1, lat.size());
        }
        std::printf("error_rate %.17g fraction (%llu of %llu)\n",
                    double(gates.failed) / double(attempted),
                    static_cast<unsigned long long>(gates.failed),
                    static_cast<unsigned long long>(attempted));
    } else {
        SpanLog log;
        // As many traced rounds as fit the other half, at least one.
        unsigned traced_rounds = unsigned(std::max(
            1.0, std::floor(timed_seconds / median(timed.round_walls_s))));
        std::vector<TracedRound> traced_runs =
            runTraced(script, traced_rounds, log);
        TracedSummary traced =
            checkTraced(script, traced_runs, timed, rounds[0], gates);
        attempted += traced.attempted;
        checkPinned(pinned, traced.ledger, timed.result_digest, gates);
        std::cout << "traced rounds=" << traced_runs.size() << "\n"
                  << "ledger "
                  << ledgerJson(traced.ledger, timed.result_digest) << "\n";
        Folded folded = fold(log.records());
        metrics = layerMetrics(script, timed, rounds.size(), traced, folded);
        double overhead = 0.0;
        for (const Metric &m : metrics) {
            printMetric(m);
            if (m.name == "obs.trace_overhead_pct")
                overhead = m.value;
        }
        printFolded(script, folded,
                    double(script.lines.size() * traced_runs.size()),
                    overhead);
        if (!args.out_dir.empty()) {
            std::string path = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
            std::ofstream out(path);
            log.writeChromeJson(out);
            gates.check(bool(out), "cannot write " + path);
            std::cout << "chrome_trace " << path << "\n";
        }
    }
    printResult(gates.failed == 0, attempted, gates.failed, metrics);
    return gates.failed == 0 ? 0 : 1;
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    std::string error;
    if (!perfbench::parseArgs(argc, argv, args, error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
