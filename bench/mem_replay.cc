/**
 * @file
 * Before/after throughput benchmark for the trace-replay data path,
 * the source of the committed BENCH_mem.json.
 *
 * Runs the Figure 5 sweep (12 RMS kernels x 4 stack options) twice
 * in one process:
 *
 *  - "baseline": mem::runReferenceReplay() with the scalar tag
 *    probe — the pre-optimization replay path, kept as the
 *    correctness oracle;
 *  - "after": TraceEngine::run() with the default tag probe (SSE2
 *    signature search where available).
 *
 * Both legs must produce bit-identical model results (cycles, CPMA);
 * the bench exits non-zero on any divergence, so it doubles as an
 * end-to-end equivalence check. Throughput is reported as replayed
 * records per second (best of --reps runs per cell, summed over the
 * sweep).
 *
 * Usage:
 *   mem_replay [--records N] [--reps N] [--json FILE]
 *
 * CI runs a tiny sweep (--records 2000 --reps 1) for JSON validity;
 * the committed BENCH_mem.json comes from the full default sweep.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "mem/engine.hh"
#include "mem/reference_engine.hh"
#include "mem/tagsearch.hh"
#include "workloads/registry.hh"

using namespace stack3d;

namespace {

constexpr mem::StackOption kOptions[] = {
    mem::StackOption::Baseline4MB,
    mem::StackOption::Sram12MB,
    mem::StackOption::Dram32MB,
    mem::StackOption::Dram64MB,
};

struct LegTotals
{
    double seconds[4] = {0, 0, 0, 0}; ///< per stack option
    std::uint64_t records[4] = {0, 0, 0, 0};

    double
    totalSeconds() const
    {
        return seconds[0] + seconds[1] + seconds[2] + seconds[3];
    }

    std::uint64_t
    totalRecords() const
    {
        return records[0] + records[1] + records[2] + records[3];
    }
};

struct CellCheck
{
    Cycles cycles = 0;
    double cpma = 0.0;
    double avg_latency = 0.0;
};

const char *
tagModeName(mem::TagSearchMode mode)
{
    switch (mode) {
      case mem::TagSearchMode::Scalar:
        return "scalar";
      case mem::TagSearchMode::Simd:
        return "simd";
    }
    return "?";
}

double
refsPerSec(std::uint64_t records, double seconds)
{
    return seconds > 0.0 ? double(records) / seconds : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t records = 50000;
    int reps = 3;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--records") && i + 1 < argc) {
            records = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: mem_replay [--records N] [--reps N]"
                         " [--json FILE]\n");
            return 2;
        }
    }
    if (records == 0 || reps < 1) {
        std::fprintf(stderr, "mem_replay: bad --records/--reps\n");
        return 2;
    }

    const mem::TagSearchMode fast_mode = mem::tagSearchMode();
    std::vector<std::string> kernels = workloads::rmsKernelNames();

    LegTotals base, after;
    bool mismatch = false;

    for (const std::string &name : kernels) {
        auto kernel = workloads::makeRmsKernel(name);
        workloads::WorkloadConfig cfg;
        cfg.records_per_thread = records;
        trace::TraceBuffer buf = kernel->generate(cfg);

        for (std::size_t o = 0; o < 4; ++o) {
            mem::HierarchyParams hp =
                mem::makeHierarchyParams(kOptions[o]);
            mem::TraceEngine eng;

            CellCheck ref_check, fast_check;
            double ref_best = 1e300, fast_best = 1e300;
            for (int r = 0; r < reps; ++r) {
                mem::setTagSearchMode(mem::TagSearchMode::Scalar);
                mem::MemoryHierarchy h1(hp);
                auto t0 = std::chrono::steady_clock::now();
                mem::EngineResult er =
                    mem::runReferenceReplay(eng.params(), buf, h1);
                auto t1 = std::chrono::steady_clock::now();
                ref_best = std::min(
                    ref_best,
                    std::chrono::duration<double>(t1 - t0).count());
                ref_check = {er.total_cycles, er.cpma,
                             er.avg_latency};

                mem::setTagSearchMode(fast_mode);
                mem::MemoryHierarchy h2(hp);
                auto t2 = std::chrono::steady_clock::now();
                mem::EngineResult ef = eng.run(buf, h2);
                auto t3 = std::chrono::steady_clock::now();
                fast_best = std::min(
                    fast_best,
                    std::chrono::duration<double>(t3 - t2).count());
                fast_check = {ef.total_cycles, ef.cpma,
                              ef.avg_latency};
            }
            mem::clearTagSearchMode();

            if (ref_check.cycles != fast_check.cycles ||
                ref_check.cpma != fast_check.cpma ||
                ref_check.avg_latency != fast_check.avg_latency) {
                std::fprintf(
                    stderr,
                    "mem_replay: MISMATCH %s/%s: cycles %llu vs "
                    "%llu cpma %.9f vs %.9f\n",
                    name.c_str(), mem::stackOptionName(kOptions[o]),
                    (unsigned long long)ref_check.cycles,
                    (unsigned long long)fast_check.cycles,
                    ref_check.cpma, fast_check.cpma);
                mismatch = true;
            }

            base.seconds[o] += ref_best;
            base.records[o] += buf.size();
            after.seconds[o] += fast_best;
            after.records[o] += buf.size();

            std::fprintf(stderr, "%-8s %-12s ref %7.2f ms  fast %7.2f ms\n",
                         name.c_str(),
                         mem::stackOptionName(kOptions[o]),
                         ref_best * 1e3, fast_best * 1e3);
        }
    }

    double base_total = refsPerSec(base.totalRecords(),
                                   base.totalSeconds());
    double after_total = refsPerSec(after.totalRecords(),
                                    after.totalSeconds());
    double speedup = base_total > 0.0 ? after_total / base_total : 0.0;

    char date[16];
    {
        // Date stamp for the committed JSON's provenance only; no
        // model result depends on it.
        std::time_t t = std::time(nullptr);   // lint3d: det-wallclock-ok
        std::tm tm{};
        localtime_r(&t, &tm);
        std::strftime(date, sizeof(date), "%Y-%m-%d", &tm);
    }

    std::ostringstream os;
    JsonWriter w(os, /*compact=*/false);
    w.beginObject();
    w.key("comment").beginArray();
    w.value("Committed before/after baseline for the trace-replay");
    w.value("data path. 'baseline' is mem::runReferenceReplay with");
    w.value("the scalar tag probe (the pre-optimization engine, kept");
    w.value("as the correctness oracle); 'after' is TraceEngine::run");
    w.value("(event-driven issue, calendar-queue completions, SoA");
    w.value("decode) with the SIMD signature tag search. Both legs");
    w.value("replay the Figure 5 sweep (12 RMS kernels x 4 stack");
    w.value("options) and must agree bit-for-bit on every model");
    w.value("output. refs_per_s = trace records replayed per second,");
    w.value("best-of-reps per cell, summed over the sweep.");
    w.value("Refresh with: bench/mem_replay --json BENCH_mem.json");
    w.endArray();
    w.key("machine").beginObject();
    w.key("hardware_threads")
        .value(std::uint64_t(std::thread::hardware_concurrency()));
    w.key("records_per_thread").value(records);
    w.key("reps").value(reps);
    w.key("tag_search").value(tagModeName(fast_mode));
#ifdef STACK3D_MARCH_STR
    w.key("march").value(STACK3D_MARCH_STR);
#else
    w.key("march").value("default");
#endif
    w.key("date").value(date);
    w.endObject();
    w.key("baseline_refs_per_s").beginObject();
    for (std::size_t o = 0; o < 4; ++o) {
        w.key(mem::stackOptionName(kOptions[o]))
            .value(refsPerSec(base.records[o], base.seconds[o]));
    }
    w.key("total").value(base_total);
    w.endObject();
    w.key("after_refs_per_s").beginObject();
    for (std::size_t o = 0; o < 4; ++o) {
        w.key(mem::stackOptionName(kOptions[o]))
            .value(refsPerSec(after.records[o], after.seconds[o]));
    }
    w.key("total").value(after_total);
    w.endObject();
    w.key("speedup").value(speedup);
    w.key("bit_identical").value(!mismatch);
    w.endObject();
    os << "\n";

    if (!json_path.empty()) {
        std::ofstream f(json_path);
        f << os.str();
        if (!f) {
            std::fprintf(stderr, "mem_replay: cannot write %s\n",
                         json_path.c_str());
            return 2;
        }
    } else {
        std::cout << os.str();
    }
    std::fprintf(stderr,
                 "mem_replay: baseline %.2fM refs/s, after %.2fM "
                 "refs/s, speedup %.2fx%s\n",
                 base_total / 1e6, after_total / 1e6, speedup,
                 mismatch ? " [MISMATCH]" : "");
    return mismatch ? 1 : 0;
}
