/**
 * @file
 * The Memory+Logic stacking study (Section 3): runs the two-threaded
 * RMS workloads against the four Figure 7 cache organizations and
 * reports CPMA, off-die bandwidth and bus power — the data behind
 * Figure 5 and the paper's headline memory-stacking results.
 */

#ifndef STACK3D_CORE_MEMORY_STUDY_HH
#define STACK3D_CORE_MEMORY_STUDY_HH

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <vector>

#include "core/run_options.hh"
#include "mem/engine.hh"
#include "obs/metrics.hh"
#include "workloads/config.hh"
#include "workloads/registry.hh"

namespace stack3d {
namespace core {

/** The four Figure 7 configurations, in Figure 5 order. */
constexpr std::array<mem::StackOption, 4> kStackOptions = {
    mem::StackOption::Baseline4MB,
    mem::StackOption::Sram12MB,
    mem::StackOption::Dram32MB,
    mem::StackOption::Dram64MB,
};

/** Per-benchmark results across the four options. */
struct MemoryStudyRow
{
    std::string benchmark;
    std::uint64_t records = 0;
    double footprint_mb = 0.0;
    std::array<double, 4> cpma{};
    std::array<double, 4> bw_gbps{};
    std::array<double, 4> bus_power_w{};
    std::array<double, 4> llc_miss{};
};

/** Aggregates matching the paper's Section 3 headlines. */
struct MemoryStudySummary
{
    /** Average CPMA reduction of the 32 MB option vs baseline. */
    double avg_cpma_reduction_32m = 0.0;
    /** Best single-benchmark CPMA reduction at 32 MB. */
    double max_cpma_reduction_32m = 0.0;
    /** Average off-die bandwidth reduction factor at 32 MB. */
    double avg_bw_reduction_factor_32m = 0.0;
    /** Average bus-power reduction at 32 MB (fraction). */
    double avg_bus_power_reduction_32m = 0.0;
    /** Average absolute bus-power saving at 32 MB (watts). */
    double avg_bus_power_saving_w = 0.0;
};

/** Full study result. */
struct MemoryStudyResult
{
    std::vector<MemoryStudyRow> rows;
    MemoryStudySummary summary;
};

/**
 * Per-benchmark calibrated records-per-thread budget (the number of
 * working-set sweeps each benchmark needs to expose its reuse).
 */
std::uint64_t recommendedRecordsPerThread(const std::string &benchmark);

/** Study-specific inputs of the unified entry point. */
struct MemoryStudySpec
{
    /** Benchmarks to run (default: all 12 of Table 1). */
    std::vector<std::string> benchmarks;

    /** Issue-engine knobs (window, issue width, warm-up). */
    mem::EngineParams engine;
};

/**
 * Finished memory-study rows kept across study runs, so that a study
 * repeating a kernel under the same inputs recalls the kernel's row
 * instead of regenerating its trace and replaying it on all four
 * options. The granularity is a kernel row because a study always
 * runs all four options of a kernel.
 *
 * A row is a pure function of its Key (the determinism invariant), so
 * a recalled row is bit-identical to a recomputed one. The key is the
 * complete set of inputs compared memberwise, not a digest, so no
 * collision can return another kernel's row.
 *
 * Bounded by a byte budget; the least recently used row is evicted.
 * Thread-safe: concurrent studies may share one memo. Two studies
 * that miss the same key at once both compute it; the second put()
 * leaves the first row in place.
 */
class MemoryRowMemo
{
  public:
    /** Bound on the rows' estimated heap: about 220 kernel rows (a
     *  row's four counter sets hold about 167 scalars, ~9.3 KB). */
    static constexpr std::size_t kByteBudget = std::size_t(2) << 20;

    /** Every input a kernel's row depends on. */
    struct Key
    {
        std::string benchmark;
        workloads::WorkloadConfig workload;
        mem::EngineParams engine;

        bool operator==(const Key &) const = default;
    };

    /** Everything a kernel's five cells put into a report. */
    struct Row
    {
        MemoryStudyRow row;
        /** Each option cell's engine counters, in kStackOptions order. */
        std::array<obs::CounterSet, kStackOptions.size()> counters;
    };

    /** Activity and occupancy of one memo. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        std::size_t bytes = 0;   ///< estimated heap held by the rows
    };

    MemoryRowMemo() = default;
    MemoryRowMemo(const MemoryRowMemo &) = delete;
    MemoryRowMemo &operator=(const MemoryRowMemo &) = delete;

    /**
     * Copy the row stored under @p key into @p out and mark it most
     * recently used. Counts a hit or a miss.
     */
    [[nodiscard]] bool tryGet(const Key &key, Row &out);

    /** Store @p row under @p key; a key already held is kept as is. */
    void put(Key key, Row row);

    [[nodiscard]] Stats stats() const;

  private:
    struct Entry
    {
        Key key;
        Row row;
        std::size_t bytes = 0;
    };

    mutable std::mutex _mutex;
    std::list<Entry> _entries;   ///< front = most recently used
    Stats _stats;
};

/**
 * Run the memory study under the unified Run/Report API.
 *
 * Cell decomposition: per benchmark, one trace-generation cell
 * ("<bench>/trace") followed by four engine cells ("<bench>/<option>"),
 * 5 cells per benchmark in canonical order. Generation cells fan out
 * first (traces are immutable and shared read-only by the option
 * cells); engine cells fan out after the generation barrier. Each
 * benchmark's trace seed derives from (options.seed, benchmark name),
 * so results are bit-identical for every thread count.
 *
 * With options.memo set, a kernel the memo holds skips generation and
 * replay: its five cells still run (same labels, cancel checkpoints
 * and fault schedule) but only copy the recalled row, so payload and
 * meta.counters match a cold run. Rows computed here are put into the
 * memo only after every cell of the study has succeeded.
 */
StudyReport<MemoryStudyResult> runMemoryStudy(
    const RunOptions &options, const MemoryStudySpec &spec = {});

} // namespace core
} // namespace stack3d

#endif // STACK3D_CORE_MEMORY_STUDY_HH
