/**
 * @file
 * Benchmark-suite driver for the Logic+Logic study: runs the ~650
 * synthetic single-thread traces (Section 2.2's populations) through
 * pipeline configurations and aggregates speedups, reproducing
 * Table 4's per-path attribution.
 *
 * Table 4 compares twelve configurations: planar, each path reduced
 * alone, and all paths reduced. They lower to nine distinct
 * PipelineTimings (the four front-end paths each remove one stage of
 * the same in-order front depth) of one shape. The suite is streamed:
 * each trace is generated, simulated under all nine timings in one
 * lockstep pass, and dropped, and every row is derived from the kept
 * per-trace results.
 */

#ifndef STACK3D_CPU_SUITE_HH
#define STACK3D_CPU_SUITE_HH

#include <string>
#include <vector>

#include "cpu/pipeline.hh"

namespace stack3d {

namespace obs {
class CounterSet;
} // namespace obs

namespace cpu {

/** Suite execution options. */
struct SuiteOptions
{
    /** Use the full ~650-trace population (8x the default). */
    bool full_suite = false;

    /** µops simulated per trace. */
    std::uint64_t uops_per_trace = 200000;

    std::uint64_t seed = 7;
};

/** Aggregated per-class and overall results for one configuration. */
struct SuiteResult
{
    /** Geometric-mean IPC across all traces. */
    double geomean_ipc = 0.0;

    /** Per application class: name and geomean IPC. */
    std::vector<std::pair<std::string, double>> class_ipc;

    unsigned num_traces = 0;

    // Pipeline activity summed over every trace of the suite run —
    // the per-stage stall / squash attribution behind the IPC.
    std::uint64_t uops = 0;
    std::uint64_t cycles = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t trace_breaks = 0;
    std::uint64_t sq_stall_cycles = 0;
    std::uint64_t window_stall_cycles = 0;
};

/** One row of Table 4. */
struct Table4Row
{
    Path path;
    /** Percent of the path's planar pipe stages eliminated. */
    double stages_eliminated_pct = 0.0;
    /** Geomean performance gain of eliminating only this path. */
    double perf_gain_pct = 0.0;
};

/** Full Table 4: per-path rows plus the all-paths total. */
struct Table4Result
{
    std::vector<Table4Row> rows;
    /** Gain of the full 3D configuration (all paths at once). */
    double total_perf_gain_pct = 0.0;
    SuiteResult planar;
    SuiteResult stacked;

    /** Distinct pipeline timings simulated over the suite. */
    unsigned timings = 0;
    /** Passes over a trace, each simulating every timing: one per
     *  trace. */
    unsigned passes = 0;
    /** µops simulated: timings x traces x µops per trace. */
    std::uint64_t simulated_uops = 0;
};

/**
 * Table 4's twelve configurations (planar, each path reduced alone in
 * Path order, all paths reduced) lowered to their distinct timings,
 * in order of first appearance. If @p timing_of is given, it receives
 * each configuration's index into the result.
 */
std::vector<PipelineTiming>
table4Timings(std::vector<std::size_t> *timing_of = nullptr);

/** Compute Table 4 (per-path and total gains). */
Table4Result computeTable4(const SuiteOptions &options = {});

/**
 * Fold Table 4's work and pipeline counters into @p out: the planar
 * and stacked suite aggregates under "cpu.planar." and "cpu.stacked."
 * (uops, cycles, ipc, mispredicts, trace_breaks, and the per-cause
 * stall-cycle attribution), plus "cpu.table4.timings",
 * "cpu.table4.passes" and "cpu.table4.simulated_uops".
 */
void appendTable4Counters(const Table4Result &result,
                          obs::CounterSet &out);

} // namespace cpu
} // namespace stack3d

#endif // STACK3D_CPU_SUITE_HH
