#include "pipeline.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

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
    stack3d_assert(cfg.rob_size > 0 && cfg.alloc_pool_size > 0 &&
                       cfg.store_queue_size > 0,
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

bool
PipelineTiming::sameShape(const PipelineTiming &other) const
{
    return pool == other.pool && pool_units == other.pool_units &&
           rob_size == other.rob_size &&
           alloc_pool_size == other.alloc_pool_size &&
           store_queue_size == other.store_queue_size &&
           fetch_width == other.fetch_width &&
           retire_width == other.retire_width &&
           trace_break_rate == other.trace_break_rate;
}

namespace {

/** One lane: its timing and its in-order running state. */
struct Lane
{
    PipelineTiming t;

    // In-order fetch: groups of fetch_width per cycle, pushed out by
    // redirects and bubbles.
    Cycles fetch_cycle = 0;
    unsigned fetch_in_group = 0;

    Cycles prev_dispatch = 0;
    Cycles prev_retire = 0;

    std::uint64_t sq_stall_cycles = 0;
    std::uint64_t window_stall_cycles = 0;
};

} // anonymous namespace

std::vector<CpuResult>
simulateLanes(std::span<const PipelineTiming> lanes,
              const std::vector<CpuUop> &uops)
{
    obs::Span span("cpu.pipeline", "cpu");

    stack3d_assert(!lanes.empty(), "no pipeline timing to simulate");
    const PipelineTiming &shape = lanes.front();
    for (const PipelineTiming &t : lanes) {
        stack3d_assert(t.sameShape(shape),
                       "pipeline lanes must share a shape");
    }

    const std::size_t nl = lanes.size();
    const std::size_t n = uops.size();
    std::vector<CpuResult> results(nl);
    if (uops.empty())
        return results;

    std::vector<Lane> lane(lanes.begin(), lanes.end());

    // The arrays below are lane-minor: entry [row][lane] sits at
    // row * nl + lane, so one µop's lanes sit side by side.
    //
    // done[i + 1] is uop i's completion; done[0] stays 0 and stands
    // in for "no producer", so operand reads need no branch.
    std::vector<Cycles> done((n + 1) * nl, 0);

    // Retirement cycles of the last `ring` uops: uop i at i & mask.
    // The ring is longer than any distance read back (ROB, rename
    // pool, retire width), so those reads never see a newer uop.
    const std::size_t ring = std::bit_ceil(
        std::size_t(std::max({shape.rob_size, shape.alloc_pool_size,
                              shape.retire_width})) +
        1);
    const std::size_t mask = ring - 1;
    std::vector<Cycles> retire(ring * nl, 0);

    // Release cycles of the last store_queue_size stores, oldest at
    // sq_head: 0 (never blocks) until the queue first fills. Stores
    // are the same uops in every lane, so the head is shared.
    std::vector<Cycles> sq(std::size_t(shape.store_queue_size) * nl, 0);
    std::size_t sq_head = 0;

    // Next free cycle of every unit (fully pipelined: one issue per
    // cycle), [pool][unit][lane]. A pool's slots past its unit count
    // are never free.
    std::vector<Cycles> next_free(kNumUnitPools * kMaxPoolUnits * nl);
    for (unsigned p = 0; p < kNumUnitPools; ++p) {
        for (unsigned k = 0; k < kMaxPoolUnits; ++k) {
            std::fill_n(next_free.begin() +
                            std::ptrdiff_t((p * kMaxPoolUnits + k) * nl),
                        nl,
                        k < shape.pool_units[p]
                            ? 0
                            : std::numeric_limits<Cycles>::max());
        }
    }

    std::uint64_t mispredicts = 0;
    std::uint64_t trace_breaks = 0;

    // Simulate uop i in every lane. Each lane performs the one-timing
    // loop's integer operations in its order; the phases below only
    // interleave lanes, which share no state. Once i has passed the
    // ROB, rename pool and retire width (`filled`), every look-back
    // read applies and needs no check.
    auto step = [&](std::size_t i, auto filled) {
        constexpr bool kFilled = decltype(filled)::value;

        // ---- decode: the decisions every lane shares ----
        const CpuUop &uop = uops[i];
        const unsigned cls = unsigned(uop.cls);
        const bool is_store = uop.cls == UopClass::Store;
        const bool mispredict =
            uop.cls == UopClass::Branch && uop.mispredict;
        const bool trace_break =
            uop.cls == UopClass::Branch && !uop.mispredict &&
            hashChance(i, shape.trace_break_rate);
        mispredicts += mispredict;
        trace_breaks += trace_break;

        const bool rob_full = kFilled || i >= shape.rob_size;
        const bool pool_full = kFilled || i >= shape.alloc_pool_size;
        const bool retire_full = kFilled || i >= shape.retire_width;
        const Cycles *rob_row =
            retire.data() + ((i - shape.rob_size) & mask) * nl;
        const Cycles *pool_row =
            retire.data() + ((i - shape.alloc_pool_size) & mask) * nl;
        const Cycles *width_row =
            retire.data() + ((i - shape.retire_width) & mask) * nl;
        Cycles *retire_row = retire.data() + (i & mask) * nl;
        Cycles *sq_row = sq.data() + sq_head * nl;

        // ---- fetch + dispatch (rename/alloc output, in order) ----
        for (std::size_t l = 0; l < nl; ++l) {
            Lane &s = lane[l];
            if (s.fetch_in_group >= shape.fetch_width) {
                s.fetch_in_group = 0;
                ++s.fetch_cycle;
            }
            const Cycles fetch_time = s.fetch_cycle;
            ++s.fetch_in_group;

            const Cycles dispatch =
                std::max(fetch_time + s.t.front_depth, s.prev_dispatch);

            // ROB window (the uop rob_size back must have retired)
            // and rename pool (resources recycle pool_release after
            // retirement).
            Cycles window = dispatch;
            if (rob_full)
                window = std::max(window, rob_row[l]);
            if (pool_full)
                window = std::max(window, pool_row[l] + s.t.pool_release);
            s.window_stall_cycles += window - dispatch;
            s.prev_dispatch = window;
        }

        // Store queue: entries live until sq_release past retire.
        if (is_store) {
            for (std::size_t l = 0; l < nl; ++l) {
                Lane &s = lane[l];
                const Cycles dispatch = s.prev_dispatch;
                const Cycles sq_ready = std::max(dispatch, sq_row[l]);
                s.sq_stall_cycles += sq_ready - dispatch;
                s.prev_dispatch = sq_ready;
            }
        }

        // ---- operand readiness, issue + execute, retire ----
        // A distance of 0 (no dependency) or past the trace start
        // wraps or overshoots to slot 0.
        const Cycles *src[2];
        for (unsigned k = 0; k < 2; ++k) {
            std::size_t dist = uop.src_dist[k];
            src[k] = done.data() + (dist - 1 < i ? i + 1 - dist : 0) * nl;
        }
        Cycles *units =
            next_free.data() + shape.pool[cls] * kMaxPoolUnits * nl;
        const unsigned level = unsigned(uop.mem_level);
        Cycles *done_row = done.data() + (i + 1) * nl;
        for (std::size_t l = 0; l < nl; ++l) {
            Lane &s = lane[l];
            Cycles ready = std::max(s.prev_dispatch, src[0][l]);
            ready = std::max(ready, src[1][l]);

            unsigned unit = 0;
            for (unsigned k = 1; k < kMaxPoolUnits; ++k) {
                unit = units[k * nl + l] < units[unit * nl + l] ? k
                                                                : unit;
            }
            Cycles &unit_free = units[unit * nl + l];
            const Cycles start = std::max(ready, unit_free);
            unit_free = start + 1;
            const Cycles finish = start + s.t.latency[cls][level];
            done_row[l] = finish;

            // In order, retire_width per cycle.
            Cycles ret = std::max(finish, s.prev_retire);
            if (retire_full)
                ret = std::max(ret, width_row[l] + 1);
            retire_row[l] = ret;
            s.prev_retire = ret;
        }

        if (is_store) {
            for (std::size_t l = 0; l < nl; ++l)
                sq_row[l] = retire_row[l] + lane[l].t.sq_release;
            sq_head = sq_head + 1 == shape.store_queue_size ? 0
                                                             : sq_head + 1;
        }

        // ---- control flow ----
        if (mispredict) {
            for (std::size_t l = 0; l < nl; ++l) {
                Lane &s = lane[l];
                const Cycles resume = done_row[l] + s.t.redirect_cycles;
                if (resume > s.fetch_cycle) {
                    s.fetch_cycle = resume;
                    s.fetch_in_group = 0;
                }
            }
        } else if (trace_break) {
            for (Lane &s : lane) {
                s.fetch_cycle += s.t.instr_loop;
                s.fetch_in_group = 0;
            }
        }
    };

    const std::size_t filled_from = std::min<std::size_t>(
        n, std::max({shape.rob_size, shape.alloc_pool_size,
                     shape.retire_width}));
    std::size_t i = 0;
    for (; i < filled_from; ++i)
        step(i, std::false_type{});
    for (; i < n; ++i)
        step(i, std::true_type{});

    for (std::size_t l = 0; l < nl; ++l) {
        CpuResult &r = results[l];
        r.num_uops = n;
        r.cycles = lane[l].prev_retire;
        r.ipc = double(n) / double(r.cycles);
        r.mispredicts = mispredicts;
        r.trace_breaks = trace_breaks;
        r.sq_stall_cycles = lane[l].sq_stall_cycles;
        r.window_stall_cycles = lane[l].window_stall_cycles;
    }
    return results;
}

PipelineModel::PipelineModel(const PipelineConfig &config)
    : _timing(PipelineTiming::lower(config))
{
}

CpuResult
PipelineModel::run(const std::vector<CpuUop> &uops) const
{
    return simulateLanes({&_timing, 1}, uops).front();
}

} // namespace cpu
} // namespace stack3d
