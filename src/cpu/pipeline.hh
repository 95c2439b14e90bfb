/**
 * @file
 * Cycle-accounting model of the deeply pipelined out-of-order
 * machine. Each µop's fetch, dispatch, issue, completion and
 * retirement times are derived in one in-order pass with full
 * dataflow (register dependencies), structural (ROB, rename pool,
 * store queue, execution units) and control (misprediction redirect,
 * trace-break bubbles) constraints — the standard dataflow-schedule
 * formulation of a dynamically scheduled pipeline.
 *
 * All ten Table 4 wire paths enter the timing:
 *   - trace cache / front end / rename / RF-read stages form the
 *     in-order front depth and the misprediction refill;
 *   - D$ read and FP-load wire set load-to-use latencies;
 *   - the RF->SIMD->FP detour lengthens every FP op;
 *   - the instruction-loop bubble hits trace-breaking branches;
 *   - retire-to-deallocation delays rename-pool recycling;
 *   - the store lifetime holds store-queue entries past retirement.
 *
 * A PipelineConfig is first lowered to a PipelineTiming: exactly the
 * values the simulation reads. Configs that lower to equal timings
 * produce equal results on every trace, which is what lets Table 4
 * simulate each distinct timing once. Timings that also share a shape
 * (structure sizes, widths, unit pools, trace-break rate) make the
 * same per-µop decisions, so simulateLanes() runs them over a trace
 * in one lockstep pass, one lane per timing.
 */

#ifndef STACK3D_CPU_PIPELINE_HH
#define STACK3D_CPU_PIPELINE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cpu/config.hh"
#include "workloads/cpu_workload.hh"

namespace stack3d {
namespace cpu {

/** Result of one trace simulation. */
struct CpuResult
{
    std::uint64_t num_uops = 0;
    Cycles cycles = 0;
    double ipc = 0.0;

    std::uint64_t mispredicts = 0;
    std::uint64_t trace_breaks = 0;
    /** Dispatch cycles lost to a full store queue. */
    std::uint64_t sq_stall_cycles = 0;
    /** Dispatch cycles lost to ROB / rename-pool pressure. */
    std::uint64_t window_stall_cycles = 0;

    bool operator==(const CpuResult &) const = default;
};

/** µop classes (workloads::UopClass enumerators). */
constexpr unsigned kNumUopClasses = 7;
/** Hierarchy levels a load can hit (workloads::MemLevel). */
constexpr unsigned kNumMemLevels = 3;
/** Execution-unit pools: integer, FP, SIMD, load and store ports. */
constexpr unsigned kNumUnitPools = 5;
/** Most units one pool may hold. */
constexpr unsigned kMaxPoolUnits = 4;

/**
 * A PipelineConfig lowered to exactly the values the simulation
 * reads. Equal timings simulate identically on every trace.
 */
struct PipelineTiming
{
    /** Fetch to dispatch: trace cache + front end + rename + RF. */
    Cycles front_depth = 0;
    /** Resolution to fetch restart after a misprediction: the
     *  back-end share of the penalty plus retire-to-deallocation. */
    Cycles redirect_cycles = 0;
    /** Retire to rename-pool release. */
    Cycles pool_release = 0;
    /** Retire to store-queue release (lifetime + deallocation). */
    Cycles sq_release = 0;
    /** Fetch bubble of a trace-breaking branch. */
    Cycles instr_loop = 0;

    /** Issue-to-completion latency by [µop class][memory level]. */
    std::array<std::array<Cycles, kNumMemLevels>, kNumUopClasses>
        latency{};
    /** Unit pool each µop class issues to. */
    std::array<std::uint8_t, kNumUopClasses> pool{};
    /** Units in each pool. */
    std::array<unsigned, kNumUnitPools> pool_units{};

    unsigned rob_size = 0;
    unsigned alloc_pool_size = 0;
    unsigned store_queue_size = 0;
    unsigned fetch_width = 0;
    unsigned retire_width = 0;
    double trace_break_rate = 0.0;

    bool operator==(const PipelineTiming &) const = default;

    /**
     * True when @p other has this timing's shape: the structure sizes,
     * widths, unit pools and trace-break rate. Timings of one shape
     * differ only in latencies and delays.
     */
    bool sameShape(const PipelineTiming &other) const;

    /**
     * Lower @p config, which must have positive widths, non-empty
     * structures and 1..kMaxPoolUnits units per pool.
     */
    static PipelineTiming lower(const PipelineConfig &config);
};

/**
 * Simulate @p uops once under every timing in @p lanes, in lockstep.
 * The lanes must share a shape (PipelineTiming::sameShape). Result k
 * is lane k's, field-equal to simulating lanes[k] alone.
 */
std::vector<CpuResult>
simulateLanes(std::span<const PipelineTiming> lanes,
              const std::vector<workloads::CpuUop> &uops);

/** The pipeline timing model of one configuration. */
class PipelineModel
{
  public:
    explicit PipelineModel(const PipelineConfig &config);

    const PipelineTiming &timing() const { return _timing; }

    /** Simulate one µop trace: simulateLanes() with one lane. */
    CpuResult run(const std::vector<workloads::CpuUop> &uops) const;

  private:
    PipelineTiming _timing;
};

} // namespace cpu
} // namespace stack3d

#endif // STACK3D_CPU_PIPELINE_HH
