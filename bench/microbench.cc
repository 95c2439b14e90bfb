/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates:
 * cache tag lookups, DRAM bank timing, the dependency-honoring trace
 * engine, the thermal CG solver, and the cpu pipeline model. These
 * track the cost of the primitives everything else is built on.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "cpu/suite.hh"
#include "exec/pool.hh"
#include "mem/engine.hh"
#include "mem/reference_engine.hh"
#include "mem/tagsearch.hh"
#include "trace/columns.hh"
#include "obs/histogram.hh"
#include "obs/trace.hh"
#include "serve/service.hh"
#include "thermal/solver.hh"
#include "thermal/stacks.hh"
#include "workloads/registry.hh"

using namespace stack3d;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheParams params{units::fromMiB(4), 64, 16, 16};
    mem::Cache cache(params, "bench");
    Random rng(42);
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.uniformInt(64u << 20) & ~Addr(63);

    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 4095], false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

// Scalar-vs-SSE2 tag-search comparison on the raw probe primitive:
// a full 16-way set of valid tags probed for each way in turn, the
// shape the L2 lookup takes on the Fig 5 sweep.
template <mem::TagSearchMode Mode>
void
tagSearchBench(benchmark::State &state)
{
    constexpr unsigned kAssoc = 16;
    std::uint64_t tags[kAssoc];
    mem::TagSig sigs[mem::sigStride(kAssoc)] = {};
    Random rng(7);
    for (unsigned w = 0; w < kAssoc; ++w) {
        tags[w] = rng.uniformInt(1u << 30) + 1;
        sigs[w] = mem::sigOf(tags[w]);
    }
    const std::uint32_t valid = (1u << kAssoc) - 1;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem::findWay(
            Mode, sigs, tags, valid, kAssoc, tags[i++ & (kAssoc - 1)]));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TagSearchScalar(benchmark::State &state)
{
    tagSearchBench<mem::TagSearchMode::Scalar>(state);
}
BENCHMARK(BM_TagSearchScalar);

void
BM_TagSearchSimd(benchmark::State &state)
{
    tagSearchBench<mem::TagSearchMode::Simd>(state);
}
BENCHMARK(BM_TagSearchSimd);

void
BM_DramBankAccess(benchmark::State &state)
{
    mem::DramTiming timing;
    mem::DramBankEngine banks(16, 512, timing, "bench");
    Random rng(42);
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.uniformInt(32u << 20) & ~Addr(63);

    Cycles now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(banks.access(addrs[i++ & 4095], now));
        now += 2;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramBankAccess);

void
BM_TraceEngine(benchmark::State &state)
{
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = 100000;
    auto kernel = workloads::makeRmsKernel("sMVM");
    trace::TraceBuffer buf = kernel->generate(cfg);

    for (auto _ : state) {
        mem::MemoryHierarchy hier(
            mem::makeHierarchyParams(mem::StackOption::Baseline4MB));
        mem::TraceEngine engine;
        benchmark::DoNotOptimize(engine.run(buf, hier));
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(buf.size()));
}
BENCHMARK(BM_TraceEngine)->Unit(benchmark::kMillisecond);

void
BM_TraceEngineReference(benchmark::State &state)
{
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = 100000;
    auto kernel = workloads::makeRmsKernel("sMVM");
    trace::TraceBuffer buf = kernel->generate(cfg);

    for (auto _ : state) {
        mem::MemoryHierarchy hier(
            mem::makeHierarchyParams(mem::StackOption::Baseline4MB));
        benchmark::DoNotOptimize(
            mem::runReferenceReplay(mem::EngineParams{}, buf, hier));
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(buf.size()));
}
BENCHMARK(BM_TraceEngineReference)->Unit(benchmark::kMillisecond);

void
BM_TraceDecode(benchmark::State &state)
{
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = 100000;
    auto kernel = workloads::makeRmsKernel("sMVM");
    trace::TraceBuffer buf = kernel->generate(cfg);

    trace::TraceColumns cols;
    for (auto _ : state) {
        cols.assign(buf);
        benchmark::DoNotOptimize(cols.addr());
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(buf.size()));
}
BENCHMARK(BM_TraceDecode);

void
BM_TraceGeneration(benchmark::State &state)
{
    workloads::WorkloadConfig cfg;
    cfg.records_per_thread = 100000;
    auto kernel = workloads::makeRmsKernel("conj");
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernel->generate(cfg));
    }
    state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

namespace {

/** The fixed two-die DRAM stack every thermal benchmark solves. */
thermal::Mesh
makeBenchMesh(const thermal::StackGeometry &geom, unsigned die_n)
{
    thermal::Mesh mesh(geom, die_n, die_n);
    thermal::PowerMap map(die_n, die_n, 12e-3, 12e-3);
    map.addUniform(90.0);
    mesh.setLayerPower(geom.layerIndex("active1"), map);
    return mesh;
}

void
thermalSolveBench(benchmark::State &state, thermal::Precond precond,
                  bool use_pool)
{
    auto die_n = unsigned(state.range(0));
    thermal::StackGeometry geom =
        thermal::makeTwoDieStack(12e-3, 12e-3,
                                 thermal::StackedDieType::Dram);
    // Mirror the studies' idiom: a worker pool only when the machine
    // can actually fan out (a 1-core pool is pure handoff overhead).
    std::unique_ptr<exec::ThreadPool> pool;
    unsigned hw = exec::ThreadPool::hardwareThreads();
    if (use_pool && hw > 1)
        pool = std::make_unique<exec::ThreadPool>(hw);
    for (auto _ : state) {
        thermal::Mesh mesh = makeBenchMesh(geom, die_n);
        thermal::SolverOptions opt;
        opt.precond = precond;
        opt.tolerance = 1e-6;
        opt.pool = pool.get();
        benchmark::DoNotOptimize(thermal::solveSteadyState(mesh, opt));
    }
}

} // anonymous namespace

/** The production fast path: multigrid + slab-parallel kernels. */
void
BM_ThermalSolve(benchmark::State &state)
{
    thermalSolveBench(state, thermal::Precond::Multigrid, true);
}
BENCHMARK(BM_ThermalSolve)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/** Multigrid alone (serial kernels), for the parallel-gain split. */
void
BM_ThermalSolveMG(benchmark::State &state)
{
    thermalSolveBench(state, thermal::Precond::Multigrid, false);
}
BENCHMARK(BM_ThermalSolveMG)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/** The original serial Jacobi-CG solver, kept as the baseline. */
void
BM_ThermalSolveJacobi(benchmark::State &state)
{
    thermalSolveBench(state, thermal::Precond::Jacobi, false);
}
BENCHMARK(BM_ThermalSolveJacobi)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void
BM_PipelineModel(benchmark::State &state)
{
    workloads::CpuWorkloadParams params;
    params.name = "bench";
    auto uops = workloads::generateCpuTrace(params, 100000, 7);
    cpu::PipelineModel model(cpu::PipelineConfig::planar());
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.run(uops));
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(uops.size()));
}
BENCHMARK(BM_PipelineModel)->Unit(benchmark::kMillisecond);

/** Table 4's nine distinct timings over one trace, in one pass. */
void
BM_PipelineModelTable4(benchmark::State &state)
{
    workloads::CpuWorkloadParams params;
    params.name = "bench";
    auto uops = workloads::generateCpuTrace(params, 100000, 7);
    const std::vector<cpu::PipelineTiming> timings = cpu::table4Timings();
    for (auto _ : state) {
        benchmark::DoNotOptimize(cpu::simulateLanes(timings, uops));
    }
    state.SetItemsProcessed(state.iterations() *
                            std::int64_t(timings.size() * uops.size()));
}
BENCHMARK(BM_PipelineModelTable4)->Unit(benchmark::kMillisecond);

void
BM_SpanNoCollector(benchmark::State &state)
{
    // The instrumentation cost every hot path pays when tracing is
    // off: one relaxed load + branch per span.
    for (auto _ : state) {
        obs::Span span("bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanNoCollector);

void
BM_SpanRecording(benchmark::State &state)
{
    obs::TraceCollector collector;
    collector.install();
    for (auto _ : state) {
        obs::Span span("bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
    collector.uninstall();
    state.SetItemsProcessed(state.iterations());
}
// Fixed iteration count: every recorded span stays buffered in the
// collector, so an open-ended run would grow without bound.
BENCHMARK(BM_SpanRecording)->Iterations(1 << 18);

void
BM_HistogramRecord(benchmark::State &state)
{
    // The per-sample cost the serve request path pays: one bucket
    // index computation plus a relaxed fetch_add and a CAS.
    obs::Histogram h;
    double value = 1e-4;
    for (auto _ : state) {
        h.record(value);
        value = value < 1.0 ? value * 1.0001 : 1e-4;
        benchmark::DoNotOptimize(&h);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void
BM_StatsSnapshot(benchmark::State &state)
{
    // The cost of one {"op":"stats"} / scrape pull with populated
    // latency instruments. The old LatencyRing copy-sorted up to
    // 4096 samples under the service mutex on every counters() call;
    // the histogram walk must stay well under 50 µs.
    serve::ServiceOptions options;
    options.workers = 0;        // inline; no pool threads in a bench
    options.watchdog_factor = 0;
    options.cache_entries = 8;
    serve::StudyService service(options);
    // One tiny cold run, then thousands of hits: fills the hit
    // histogram with real samples the way a live daemon would.
    const std::string line =
        "{\"schema_version\":2,\"study\":\"stack-thermal\","
        "\"spec\":{\"die_nx\":6,\"die_ny\":6}}";
    for (unsigned i = 0; i < 4096; ++i)
        (void)service.handle(line);

    for (auto _ : state) {
        obs::CounterSet c = service.counters();
        benchmark::DoNotOptimize(&c);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsSnapshot);

} // anonymous namespace

BENCHMARK_MAIN();
