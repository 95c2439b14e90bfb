/**
 * @file
 * The dependency-honoring trace-issue engine (Section 2.1 of the
 * paper): memory references are issued to the hierarchy in per-cpu
 * program order, at a bounded issue rate and with a bounded
 * outstanding window, and a reference whose trace dependency has not
 * completed stalls until it has — exactly the "Ld2 is issued only
 * after Ld1 is completed" rule the paper describes.
 *
 * The headline metric is CPMA (cycles per memory access): total
 * simulated cycles divided by the number of references, the figure
 * plotted on Figure 5's primary axis.
 */

#ifndef STACK3D_MEM_ENGINE_HH
#define STACK3D_MEM_ENGINE_HH

#include <cstdint>

#include "mem/hierarchy.hh"
#include "obs/metrics.hh"
#include "trace/buffer.hh"

namespace stack3d {
namespace mem {

/** Issue-engine knobs. */
struct EngineParams
{
    /** Maximum references in flight per cpu (ROB/MSHR window). */
    unsigned window = 128;

    /** References issued per cpu per cycle (the L1D accepts about
     *  one memory instruction per cycle in this generation). */
    unsigned issue_width = 1;

    /**
     * When false, trace dependencies are ignored (infinite-MLP
     * ablation; see DESIGN.md).
     */
    bool honor_dependencies = true;

    /**
     * Leading fraction of the trace treated as warm-up: it runs
     * through the hierarchy (filling caches) but is excluded from
     * CPMA / bandwidth / latency statistics, the way the paper
     * skips each benchmark's initialization phase.
     */
    double warmup_fraction = 0.2;

    /** Memberwise, so a field added later is compared too. */
    bool operator==(const EngineParams &) const = default;
};

/** Results of one engine run. */
struct EngineResult
{
    std::uint64_t num_records = 0;
    Cycles total_cycles = 0;

    /** Figure 5 primary axis: total cycles / references. */
    double cpma = 0.0;

    /** Mean start-to-completion latency of a reference. */
    double avg_latency = 0.0;

    /** Figure 5 secondary axis: achieved off-die GB/s. */
    double offdie_gbps = 0.0;

    /** Bus power at 20 mW/Gb/s. */
    double bus_power_w = 0.0;

    double l1d_miss_rate = 0.0;
    double llc_miss_rate = 0.0;

    /**
     * Latency histogram: fraction of references completing within
     * 8 cycles (L1-class), 9-32 (LLC SRAM-class), 33-128 (stacked
     * DRAM-class), and beyond 128 (off-die-class).
     */
    double latency_frac[4] = {0.0, 0.0, 0.0, 0.0};

    HierarchyCounters hier;

    /**
     * Full per-level counter snapshot (hits/misses/miss_rate/mpkr
     * per cache, DRAM cache/bank behaviour, bus occupancy, DDR
     * traffic) taken from the hierarchy at end of run.
     */
    obs::CounterSet counters;
};

/** Runs a trace through a hierarchy with dependency-honoring issue. */
class TraceEngine
{
  public:
    explicit TraceEngine(const EngineParams &params = {})
        : _params(params)
    {
    }

    const EngineParams &params() const { return _params; }

    /**
     * Simulate @p buf against @p hier (which accumulates state and
     * counters; use a fresh hierarchy per run).
     *
     * This is the fast path: it streams the trace's columns, keeps
     * its issue state in an arena, and uses linked-list issue windows
     * that skip the per-cycle window copy. It issues the exact same
     * reference sequence as the oracle, mem::runReferenceReplay()
     * (mem/reference_engine.hh), and produces bit-identical results
     * (pinned by tests/test_mem_replay_determinism.cc).
     */
    EngineResult run(const trace::TraceBuffer &buf,
                     MemoryHierarchy &hier) const;

  private:
    EngineParams _params;
};

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_ENGINE_HH
