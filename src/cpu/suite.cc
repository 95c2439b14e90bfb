#include "suite.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace cpu {

namespace {

double
stagesEliminatedPct(Path path)
{
    switch (path) {
      case Path::FrontEnd:
        return 12.5;
      case Path::TraceCache:
        return 20.0;
      case Path::RenameAlloc:
        return 25.0;
      case Path::FpLatency:
        return -1.0;   // "Variable" in the paper
      case Path::IntRfRead:
        return 25.0;
      case Path::DcacheRead:
        return 25.0;
      case Path::InstrLoop:
        return 17.0;
      case Path::RetireDealloc:
        return 20.0;
      case Path::FpLoad:
        return 35.0;
      case Path::StoreLifetime:
        return 30.0;
    }
    return 0.0;
}

/** One trace's class and its result under every distinct timing. */
struct TraceResults
{
    std::string class_name;
    std::vector<CpuResult> lanes;
};

/** Percent geomean speedup of timing @p lane over timing @p base. */
double
gainPct(const std::vector<TraceResults> &traces, std::size_t base,
        std::size_t lane)
{
    double log_sum = 0.0;
    for (const TraceResults &trace : traces)
        log_sum += std::log(trace.lanes[lane].ipc / trace.lanes[base].ipc);
    return (std::exp(log_sum / double(traces.size())) - 1.0) * 100.0;
}

/** Aggregate timing @p lane's per-trace results, in trace order. */
SuiteResult
summarize(const std::vector<TraceResults> &traces, std::size_t lane)
{
    SuiteResult result;
    result.num_traces = unsigned(traces.size());

    double log_sum = 0.0;
    std::map<std::string, std::pair<double, unsigned>> per_class;
    for (const TraceResults &trace : traces) {
        const CpuResult &r = trace.lanes[lane];
        stack3d_assert(r.ipc > 0.0, "zero IPC for trace");
        log_sum += std::log(r.ipc);
        auto &[cls_log, cls_n] = per_class[trace.class_name];
        cls_log += std::log(r.ipc);
        ++cls_n;
        result.uops += r.num_uops;
        result.cycles += r.cycles;
        result.mispredicts += r.mispredicts;
        result.trace_breaks += r.trace_breaks;
        result.sq_stall_cycles += r.sq_stall_cycles;
        result.window_stall_cycles += r.window_stall_cycles;
    }
    result.geomean_ipc = std::exp(log_sum / double(traces.size()));
    for (const auto &[name, acc] : per_class) {
        result.class_ipc.emplace_back(
            name, std::exp(acc.first / double(acc.second)));
    }
    return result;
}

void
appendSuiteCounters(const SuiteResult &result, obs::CounterSet &out,
                    const std::string &prefix)
{
    out.set(prefix + "traces", double(result.num_traces));
    out.set(prefix + "geomean_ipc", result.geomean_ipc);
    out.set(prefix + "uops", double(result.uops));
    out.set(prefix + "cycles", double(result.cycles));
    out.set(prefix + "ipc",
            result.cycles ? double(result.uops) /
                                double(result.cycles)
                          : 0.0);
    out.set(prefix + "mispredicts", double(result.mispredicts));
    out.set(prefix + "trace_breaks", double(result.trace_breaks));
    out.set(prefix + "sq_stall_cycles",
            double(result.sq_stall_cycles));
    out.set(prefix + "window_stall_cycles",
            double(result.window_stall_cycles));
}

} // anonymous namespace

std::vector<PipelineTiming>
table4Timings(std::vector<std::size_t> *timing_of)
{
    // Planar, each path reduced alone (rows in Path order), and all
    // paths reduced.
    const PipelineConfig planar = PipelineConfig::planar();
    std::vector<PipelineConfig> configs{planar};
    for (unsigned p = 0; p < kNumPaths; ++p) {
        configs.push_back(planar);
        configs.back().applyPathReduction(Path(p));
    }
    configs.push_back(PipelineConfig::stacked3d());

    std::vector<PipelineTiming> timings;
    for (const PipelineConfig &cfg : configs) {
        const PipelineTiming timing = PipelineTiming::lower(cfg);
        auto it = std::find(timings.begin(), timings.end(), timing);
        if (it == timings.end()) {
            timings.push_back(timing);
            it = timings.end() - 1;
        }
        if (timing_of)
            timing_of->push_back(std::size_t(it - timings.begin()));
    }
    return timings;
}

Table4Result
computeTable4(const SuiteOptions &options)
{
    obs::Span span("cpu.table4", "cpu");

    // Simulate each distinct timing once: configuration c reads lane
    // timing_of[c]. Equal timings give equal per-trace results, so
    // every output below is what simulating all twelve would give.
    std::vector<std::size_t> timing_of;
    const std::vector<PipelineTiming> timings = table4Timings(&timing_of);

    // Stream the suite: generate a trace, run every timing over it in
    // one pass, and keep only the results.
    std::vector<TraceResults> traces;
    for (const auto &cls : workloads::cpuAppClasses(options.full_suite)) {
        for (unsigned v = 0; v < cls.variants; ++v) {
            std::vector<workloads::CpuUop> uops;
            {
                obs::Span gen("cpu.trace_gen", "cpu");
                uops = workloads::generateCpuTrace(
                    workloads::makeVariantParams(cls, v),
                    options.uops_per_trace,
                    options.seed ^ (std::uint64_t(v) << 20) ^
                        cls.seed_salt);
            }
            traces.push_back({cls.name, simulateLanes(timings, uops)});
        }
    }
    stack3d_assert(!traces.empty(), "empty cpu trace suite");

    const std::size_t base = timing_of.front();
    const std::size_t stacked = timing_of.back();
    Table4Result result;
    for (unsigned p = 0; p < kNumPaths; ++p) {
        Table4Row row;
        row.path = Path(p);
        row.stages_eliminated_pct = stagesEliminatedPct(Path(p));
        row.perf_gain_pct = gainPct(traces, base, timing_of[1 + p]);
        result.rows.push_back(row);
    }
    result.total_perf_gain_pct = gainPct(traces, base, stacked);
    result.planar = summarize(traces, base);
    result.stacked = summarize(traces, stacked);
    result.timings = unsigned(timings.size());
    result.passes = unsigned(traces.size());
    result.simulated_uops = result.timings * result.planar.uops;
    return result;
}

void
appendTable4Counters(const Table4Result &result, obs::CounterSet &out)
{
    appendSuiteCounters(result.planar, out, "cpu.planar.");
    appendSuiteCounters(result.stacked, out, "cpu.stacked.");
    out.set("cpu.table4.timings", double(result.timings));
    out.set("cpu.table4.passes", double(result.passes));
    out.set("cpu.table4.simulated_uops", double(result.simulated_uops));
}

} // namespace cpu
} // namespace stack3d
