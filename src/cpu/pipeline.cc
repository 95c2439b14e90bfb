#include "pipeline.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace cpu {

using workloads::CpuUop;
using workloads::UopClass;

namespace {

static_assert(unsigned(UopClass::Branch) + 1 == kNumUopClasses,
              "the latency table needs a row per uop class");
static_assert(unsigned(workloads::MemLevel::Memory) + 1 == kNumMemLevels,
              "the latency table needs a column per memory level");

/** Index of an execution-unit pool in PipelineTiming::pool_units. */
enum PoolId : std::uint8_t
{
    IntUnits,
    FpUnits,
    SimdUnits,
    LoadPorts,
    StorePorts,
};
static_assert(StorePorts + 1 == kNumUnitPools);

/** Deterministic per-uop hash for trace-break decisions. */
inline bool
hashChance(std::uint64_t i, double p)
{
    std::uint64_t h = i * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return double(h & 0xffffff) / double(0x1000000) < p;
}

} // anonymous namespace

PipelineTiming
PipelineTiming::lower(const PipelineConfig &cfg)
{
    stack3d_assert(cfg.fetch_width > 0 && cfg.retire_width > 0,
                   "pipeline widths must be positive");
    stack3d_assert(cfg.rob_size > 0 && cfg.store_queue_size > 0,
                   "pipeline structures must be non-empty");

    PipelineTiming t;
    // Front pipeline depth from fetch to execute-ready: trace cache
    // read, decode/deliver, rename/alloc, register read.
    t.front_depth = Cycles(cfg.trace_cache_stages) +
                    cfg.frontend_stages + cfg.rename_stages +
                    cfg.int_rf_stages;
    // Fetch resumes after resolution plus the back-end share of the
    // redirect; the front pipeline refill (front_depth) is paid
    // naturally by later uops. Allocation cannot restart until the
    // flushed entries' resources have been reclaimed, which takes the
    // retire-to-deallocation pipeline.
    t.redirect_cycles = (cfg.mispredictPenalty() - t.front_depth) +
                        cfg.retire_dealloc_stages;
    t.pool_release = cfg.retire_dealloc_stages;
    t.sq_release = Cycles(cfg.store_lifetime) + cfg.retire_dealloc_stages;
    t.instr_loop = cfg.instr_loop_stages;

    auto set = [&](UopClass cls, PoolId pool, Cycles l1, Cycles l2,
                   Cycles memory) {
        t.pool[unsigned(cls)] = pool;
        t.latency[unsigned(cls)] = {l1, l2, memory};
    };
    const Cycles int_lat = cfg.int_latency;
    const Cycles fp_lat = Cycles(cfg.fp_latency) + cfg.fp_extra_latency;
    const Cycles d = cfg.dcache_stages;
    const Cycles l2 = d + cfg.l2_latency;
    const Cycles mem = d + cfg.memory_latency;
    const Cycles fp_load = cfg.fp_load_extra;
    set(UopClass::IntAlu, IntUnits, int_lat, int_lat, int_lat);
    set(UopClass::FpOp, FpUnits, fp_lat, fp_lat, fp_lat);
    set(UopClass::SimdOp, SimdUnits, cfg.simd_latency, cfg.simd_latency,
        cfg.simd_latency);
    set(UopClass::Load, LoadPorts, d, l2, mem);
    set(UopClass::FpLoad, LoadPorts, d + fp_load, l2 + fp_load,
        mem + fp_load);
    // Address generation / store-queue write.
    set(UopClass::Store, StorePorts, 1, 1, 1);
    set(UopClass::Branch, IntUnits, int_lat, int_lat, int_lat);

    t.pool_units = {cfg.num_int_units, cfg.num_fp_units,
                    cfg.num_simd_units, cfg.num_load_ports,
                    cfg.num_store_ports};
    for (unsigned units : t.pool_units) {
        stack3d_assert(units > 0 && units <= kMaxPoolUnits,
                       "execution unit pools hold 1..", kMaxPoolUnits,
                       " units, not ", units);
    }

    t.rob_size = cfg.rob_size;
    t.alloc_pool_size = cfg.alloc_pool_size;
    t.store_queue_size = cfg.store_queue_size;
    t.fetch_width = cfg.fetch_width;
    t.retire_width = cfg.retire_width;
    t.trace_break_rate = cfg.trace_break_rate;
    return t;
}

PipelineModel::PipelineModel(const PipelineConfig &config)
    : _timing(PipelineTiming::lower(config))
{
}

CpuResult
PipelineModel::run(const std::vector<CpuUop> &uops) const
{
    obs::Span span("cpu.pipeline", "cpu");

    CpuResult result;
    result.num_uops = uops.size();
    if (uops.empty())
        return result;

    const PipelineTiming &t = _timing;
    const std::size_t n = uops.size();

    // done[i + 1] is uop i's completion; done[0] stays 0 and stands
    // in for "no producer", so operand reads need no branch.
    std::vector<Cycles> done(n + 1, 0);
    std::vector<Cycles> retire(n, 0);

    // Release cycles of the last store_queue_size stores, oldest at
    // sq_head: 0 (never blocks) until the queue first fills.
    std::vector<Cycles> sq(t.store_queue_size, 0);
    std::size_t sq_head = 0;

    // Next free cycle of every unit (fully pipelined: one issue per
    // cycle). A pool's slots past its unit count are never free.
    std::array<std::array<Cycles, kMaxPoolUnits>, kNumUnitPools>
        next_free;
    for (unsigned p = 0; p < kNumUnitPools; ++p) {
        for (unsigned k = 0; k < kMaxPoolUnits; ++k) {
            next_free[p][k] = k < t.pool_units[p]
                                  ? 0
                                  : std::numeric_limits<Cycles>::max();
        }
    }

    // In-order fetch: groups of fetch_width per cycle, pushed out by
    // redirects and bubbles.
    Cycles fetch_cycle = 0;
    unsigned fetch_in_group = 0;

    Cycles prev_dispatch = 0;
    Cycles prev_retire = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const CpuUop &uop = uops[i];
        const unsigned cls = unsigned(uop.cls);

        // ---- fetch ----
        if (fetch_in_group >= t.fetch_width) {
            fetch_in_group = 0;
            ++fetch_cycle;
        }
        const Cycles fetch_time = fetch_cycle;
        ++fetch_in_group;

        // ---- dispatch (rename/alloc output, in order) ----
        Cycles dispatch = std::max(fetch_time + t.front_depth,
                                   prev_dispatch);

        // ROB window (the uop rob_size back must have retired) and
        // rename pool (resources recycle pool_release after
        // retirement).
        Cycles window = dispatch;
        if (i >= t.rob_size)
            window = std::max(window, retire[i - t.rob_size]);
        if (i >= t.alloc_pool_size) {
            window = std::max(window, retire[i - t.alloc_pool_size] +
                                          t.pool_release);
        }
        result.window_stall_cycles += window - dispatch;
        dispatch = window;

        // Store queue: entries live until sq_release past retire.
        const bool is_store = uop.cls == UopClass::Store;
        if (is_store) {
            Cycles sq_ready = std::max(dispatch, sq[sq_head]);
            result.sq_stall_cycles += sq_ready - dispatch;
            dispatch = sq_ready;
        }
        prev_dispatch = dispatch;

        // ---- operand readiness ----
        Cycles ready = dispatch;
        for (unsigned s = 0; s < 2; ++s) {
            // A distance of 0 (no dependency) or past the trace start
            // wraps or overshoots to slot 0.
            std::size_t dist = uop.src_dist[s];
            std::size_t slot = dist - 1 < i ? i + 1 - dist : 0;
            ready = std::max(ready, done[slot]);
        }

        // ---- issue + execute ----
        auto &units = next_free[t.pool[cls]];
        unsigned unit = 0;
        for (unsigned k = 1; k < kMaxPoolUnits; ++k)
            unit = units[k] < units[unit] ? k : unit;
        const Cycles start = std::max(ready, units[unit]);
        units[unit] = start + 1;
        const Cycles finish =
            start + t.latency[cls][unsigned(uop.mem_level)];
        done[i + 1] = finish;

        // ---- retire (in order, retire_width per cycle) ----
        Cycles ret = std::max(finish, prev_retire);
        if (i >= t.retire_width)
            ret = std::max(ret, retire[i - t.retire_width] + 1);
        retire[i] = ret;
        prev_retire = ret;

        if (is_store) {
            sq[sq_head] = ret + t.sq_release;
            sq_head = sq_head + 1 == sq.size() ? 0 : sq_head + 1;
        }

        // ---- control flow ----
        if (uop.cls == UopClass::Branch) {
            if (uop.mispredict) {
                ++result.mispredicts;
                Cycles resume = finish + t.redirect_cycles;
                if (resume > fetch_cycle) {
                    fetch_cycle = resume;
                    fetch_in_group = 0;
                }
            } else if (hashChance(i, t.trace_break_rate)) {
                ++result.trace_breaks;
                fetch_cycle += t.instr_loop;
                fetch_in_group = 0;
            }
        }
    }

    result.cycles = prev_retire;
    result.ipc = double(n) / double(result.cycles);
    return result;
}

} // namespace cpu
} // namespace stack3d
