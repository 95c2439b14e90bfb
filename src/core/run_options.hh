/**
 * @file
 * The unified Run/Report API shared by all three paper studies.
 *
 * Every study entry point takes a core::RunOptions (threads, seed,
 * depth/scale, verbosity, progress sink) and returns its payload
 * wrapped in a core::StudyReport envelope (per-cell wall-clock
 * timings, captured warnings, thread count).
 *
 * Threading model: a study is decomposed into independent *cells*
 * (e.g. benchmark × stack option, or one steady-state thermal solve),
 * identified by a canonical index. Cells never share mutable state;
 * each cell that needs randomness derives its own RNG stream from
 * (seed, cell key) via deriveCellSeed(). Results are merged by cell
 * index, so an N-thread run is bit-identical to a 1-thread run with
 * the same seed. See DESIGN.md "Threading model".
 */

#ifndef STACK3D_CORE_RUN_OPTIONS_HH
#define STACK3D_CORE_RUN_OPTIONS_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/fault.hh"
#include "common/timing.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "thermal/solver.hh"

namespace stack3d {

class JsonWriter;

namespace core {

class MemoryRowMemo;

/** How chatty a study run is. */
enum class Verbosity { Silent, Normal, Verbose };

/** Identity of one study cell, as seen by a ProgressSink. */
struct CellInfo
{
    std::size_t index = 0;   ///< canonical cell index
    std::size_t total = 0;   ///< number of cells in the study
    std::string label;       ///< e.g. "gauss/dram32m"
};

/**
 * Progress callback interface. Studies invoke the sink from worker
 * threads, but calls are serialized by the runner — implementations
 * need no internal locking. The sink must outlive the study call.
 */
class ProgressSink
{
  public:
    virtual ~ProgressSink() = default;

    virtual void
    studyStarted(const std::string &study, std::size_t num_cells)
    {
        (void)study;
        (void)num_cells;
    }

    virtual void cellStarted(const CellInfo &cell) { (void)cell; }

    /** @param fraction_done completed cells / total, after this one */
    virtual void
    cellFinished(const CellInfo &cell, double seconds,
                 double fraction_done)
    {
        (void)cell;
        (void)seconds;
        (void)fraction_done;
    }

    virtual void
    studyFinished(const std::string &study, double wall_seconds)
    {
        (void)study;
        (void)wall_seconds;
    }
};

/**
 * A ProgressSink printing one line per finished cell:
 *
 *   [memory 13/60] gauss/dram32m    0.41s  (21%)
 */
class ConsoleProgressSink : public ProgressSink
{
  public:
    explicit ConsoleProgressSink(std::ostream &os) : _os(os) {}

    void studyStarted(const std::string &study,
                      std::size_t num_cells) override;
    void cellFinished(const CellInfo &cell, double seconds,
                      double fraction_done) override;
    void studyFinished(const std::string &study,
                       double wall_seconds) override;

  private:
    std::ostream &_os;
    std::string _study;
};

/** Options common to every study run. */
struct RunOptions
{
    /**
     * Worker threads: 1 = serial (no threads spawned), 0 = one per
     * hardware core, N = exactly N. Results are independent of this
     * value.
     */
    unsigned threads = 1;

    /** Master seed; per-cell streams derive from it. */
    std::uint64_t seed = 1;

    /** Workload-length multiplier (1.0 = calibrated budgets). */
    double depth = 1.0;

    /** Working-set scale (memory study; tests use < 1). */
    double scale = 1.0;

    Verbosity verbosity = Verbosity::Normal;

    /**
     * Preconditioner for every steady-state thermal solve a study
     * runs (BenchCli's --precond flag). Multigrid is the fast
     * default; Jacobi is the original solver, kept for comparison
     * and as a cross-check.
     */
    thermal::Precond thermal_precond = thermal::Precond::Multigrid;

    /** Optional progress observer (not owned; may be null). */
    ProgressSink *progress = nullptr;

    /**
     * Optional cooperative stop request (not owned; may be null).
     * Studies poll it per cell, thermal solves per CG outer
     * iteration; observing a stop throws CancelledError, so a
     * cancelled run produces no partial report. Excluded from the
     * request digest like progress/threads — it cannot change
     * results, only whether they arrive.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Optional memo of finished memory-study rows, shared across runs
     * (not owned; may be null). Only runMemoryStudy reads it. Like
     * cancel, it is excluded from the request digest: a recalled row
     * is bit-identical to a recomputed one.
     */
    MemoryRowMemo *memo = nullptr;

    /** The thread count after resolving 0 -> hardware cores. */
    [[nodiscard]] unsigned resolvedThreads() const;
};

/** Wall-clock timing of one finished cell. */
struct CellTiming
{
    std::size_t index = 0;
    std::string label;
    double seconds = 0.0;
};

/** Study-independent part of a report. */
struct StudyMeta
{
    std::string study;
    unsigned threads_used = 1;
    double wall_seconds = 0.0;

    /** Sum of per-cell times: the serial-equivalent cost. */
    double serial_seconds = 0.0;

    /** Per-cell timings in canonical cell order. */
    std::vector<CellTiming> cells;

    /** warn() messages captured during the run. */
    std::vector<std::string> warnings;

    /**
     * Per-run counter snapshots folded in by the study runner
     * (cache levels, solver convergence, pipeline stalls, pool
     * activity), each under a dotted prefix such as "mem.dram32m."
     * or "pool.". Empty for studies that predate instrumentation.
     */
    obs::CounterSet counters;

    /**
     * Estimated speedup over a serial run (serial / wall). A
     * degenerate run — no cells, or a wall/serial time of zero (the
     * clock can legitimately read 0 for trivially small studies) —
     * reports 1.0 rather than 0, inf, or nan.
     */
    [[nodiscard]] double
    speedup() const
    {
        if (cells.empty() || wall_seconds <= 0.0 ||
            serial_seconds <= 0.0) {
            return 1.0;
        }
        double s = serial_seconds / wall_seconds;
        return std::isfinite(s) ? s : 1.0;
    }
};

/** The envelope every unified study entry point returns. */
template <typename PayloadT>
struct StudyReport
{
    PayloadT payload;
    StudyMeta meta;
};

/**
 * Derive a cell's RNG seed from the master seed and a cell key
 * (splitmix64 mixing). Equal inputs give equal streams on every
 * thread count; distinct keys give statistically independent streams.
 */
[[nodiscard]] std::uint64_t deriveCellSeed(std::uint64_t seed,
                                           std::uint64_t cell_key);

/** FNV-1a hash for stable string-derived cell keys. */
[[nodiscard]] std::uint64_t cellKey(const std::string &name);

/**
 * Parse a `--threads` style CLI argument into RunOptions::threads.
 * fatal()s (with the flag name) on anything but a plain non-negative
 * integer, instead of letting std::stoul terminate the process.
 */
[[nodiscard]] unsigned parseThreadArg(const char *text,
                                      const char *flag);

/**
 * Write `meta` as JSON fields into the writer's currently-open
 * object: study, threads, wall_seconds, serial_seconds, speedup,
 * cells[], warnings[].
 */
void writeMetaJson(JsonWriter &w, const StudyMeta &meta);

/**
 * Internal helper the study runners share: tracks per-cell timings,
 * serializes ProgressSink calls, and captures warn() messages for the
 * report. Construct one per study run; call runCell() for every cell
 * (from any thread); then finish() exactly once.
 */
class StudyTracker
{
  public:
    StudyTracker(std::string study, std::size_t num_cells,
                 const RunOptions &options);
    ~StudyTracker();

    StudyTracker(const StudyTracker &) = delete;
    StudyTracker &operator=(const StudyTracker &) = delete;

    /**
     * Time @p fn as cell @p index, reporting to the progress sink.
     * Thread-safe; each index must be used at most once.
     */
    template <typename F>
    void
    runCell(std::size_t index, const std::string &label, F &&fn)
    {
        // Checkpoints before the (expensive) cell body: cooperative
        // cancellation, then the chaos-test mid-study failure.
        if (_options.cancel && _options.cancel->shouldStop())
            throw CancelledError(_study + " cancelled before cell " +
                                 label);
        if (S3D_FAULT_POINT("study.cell.fail"))
            throw std::runtime_error("fault injected: " + _study +
                                     " cell " + label + " failed");
        cellStarted(index, label);
        obs::Span span(_study + "/" + label, "study");
        WallTimer timer;
        fn();
        cellFinished(index, label, timer.seconds());
    }

    /** Seal the report metadata (stops the study wall clock). */
    [[nodiscard]] StudyMeta finish();

  private:
    void cellStarted(std::size_t index, const std::string &label);
    void cellFinished(std::size_t index, const std::string &label,
                      double seconds);

    std::string _study;
    RunOptions _options;
    std::mutex _mutex;          ///< guards sink calls + cell table
    std::vector<CellTiming> _cells;
    std::vector<std::string> _warnings;
    std::atomic<std::size_t> _finished{0};
    WallTimer _wall;
    std::function<void(const std::string &)> _previous_hook;
    bool _finish_called = false;
};

} // namespace core
} // namespace stack3d

#endif // STACK3D_CORE_RUN_OPTIONS_HH
