#include "suite.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace cpu {

TraceSuite::TraceSuite(const SuiteOptions &options)
{
    obs::Span span("cpu.trace_gen", "cpu");

    auto classes = workloads::cpuAppClasses(options.full_suite);
    for (const auto &cls : classes) {
        for (unsigned v = 0; v < cls.variants; ++v) {
            Entry entry;
            entry.class_name = cls.name;
            auto params = workloads::makeVariantParams(cls, v);
            entry.uops = workloads::generateCpuTrace(
                params, options.uops_per_trace,
                options.seed ^ (std::uint64_t(v) << 20) ^
                    cls.seed_salt);
            _traces.push_back(std::move(entry));
        }
    }
    stack3d_assert(!_traces.empty(), "empty cpu trace suite");
}

std::vector<CpuResult>
TraceSuite::simulate(const PipelineModel &model) const
{
    obs::Span span("cpu.suite", "cpu");

    std::vector<CpuResult> per_trace;
    per_trace.reserve(_traces.size());
    for (const Entry &entry : _traces)
        per_trace.push_back(model.run(entry.uops));
    return per_trace;
}

SuiteResult
TraceSuite::summarize(const std::vector<CpuResult> &per_trace) const
{
    stack3d_assert(per_trace.size() == _traces.size(),
                   "per-trace results do not match the suite");

    SuiteResult result;
    result.num_traces = unsigned(_traces.size());

    double log_sum = 0.0;
    std::map<std::string, std::pair<double, unsigned>> per_class;
    for (std::size_t i = 0; i < _traces.size(); ++i) {
        const CpuResult &r = per_trace[i];
        stack3d_assert(r.ipc > 0.0, "zero IPC for trace");
        log_sum += std::log(r.ipc);
        auto &[cls_log, cls_n] = per_class[_traces[i].class_name];
        cls_log += std::log(r.ipc);
        ++cls_n;
        result.uops += r.num_uops;
        result.cycles += r.cycles;
        result.mispredicts += r.mispredicts;
        result.trace_breaks += r.trace_breaks;
        result.sq_stall_cycles += r.sq_stall_cycles;
        result.window_stall_cycles += r.window_stall_cycles;
    }
    result.geomean_ipc = std::exp(log_sum / double(_traces.size()));
    for (const auto &[name, acc] : per_class) {
        result.class_ipc.emplace_back(
            name, std::exp(acc.first / double(acc.second)));
    }
    return result;
}

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

/** Percent geomean speedup of @p config's traces over @p base's. */
double
gainPct(const std::vector<CpuResult> &base,
        const std::vector<CpuResult> &config)
{
    double log_sum = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i)
        log_sum += std::log(config[i].ipc / base[i].ipc);
    return (std::exp(log_sum / double(base.size())) - 1.0) * 100.0;
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

Table4Result
computeTable4(const SuiteOptions &options)
{
    obs::Span span("cpu.table4", "cpu");

    TraceSuite suite(options);

    // Planar, each path reduced alone (rows in Path order), and all
    // paths reduced.
    const PipelineConfig planar = PipelineConfig::planar();
    std::vector<PipelineConfig> configs{planar};
    for (unsigned p = 0; p < kNumPaths; ++p) {
        configs.push_back(planar);
        configs.back().applyPathReduction(Path(p));
    }
    configs.push_back(PipelineConfig::stacked3d());

    // Simulate each distinct timing once: configs[c] reads
    // runs[run_of[c]]. Equal timings give equal per-trace results, so
    // every output below is what simulating all twelve would give.
    std::vector<PipelineTiming> timings;
    std::vector<std::vector<CpuResult>> runs;
    std::vector<std::size_t> run_of;
    for (const PipelineConfig &cfg : configs) {
        PipelineModel model(cfg);
        auto it = std::find(timings.begin(), timings.end(),
                            model.timing());
        if (it == timings.end()) {
            timings.push_back(model.timing());
            runs.push_back(suite.simulate(model));
            it = timings.end() - 1;
        }
        run_of.push_back(std::size_t(it - timings.begin()));
    }
    const std::vector<CpuResult> &base = runs[run_of.front()];

    Table4Result result;
    for (unsigned p = 0; p < kNumPaths; ++p) {
        Table4Row row;
        row.path = Path(p);
        row.stages_eliminated_pct = stagesEliminatedPct(Path(p));
        row.perf_gain_pct = gainPct(base, runs[run_of[1 + p]]);
        result.rows.push_back(row);
    }
    result.total_perf_gain_pct = gainPct(base, runs[run_of.back()]);
    result.planar = suite.summarize(base);
    result.stacked = suite.summarize(runs[run_of.back()]);
    result.timings = unsigned(runs.size());
    result.simulated_uops = result.timings * result.planar.uops;
    return result;
}

void
appendTable4Counters(const Table4Result &result, obs::CounterSet &out)
{
    appendSuiteCounters(result.planar, out, "cpu.planar.");
    appendSuiteCounters(result.stacked, out, "cpu.stacked.");
    out.set("cpu.table4.timings", double(result.timings));
    out.set("cpu.table4.simulated_uops", double(result.simulated_uops));
}

} // namespace cpu
} // namespace stack3d
