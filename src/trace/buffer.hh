/**
 * @file
 * In-memory trace container with summary statistics (operation mix,
 * footprint, dependency-chain properties). Traces are immutable once
 * built by a writer; the memory-hierarchy engine iterates them.
 */

#ifndef STACK3D_TRACE_BUFFER_HH
#define STACK3D_TRACE_BUFFER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/columns.hh"
#include "trace/record.hh"

namespace stack3d {
namespace trace {

/** Summary statistics of a trace. */
struct TraceStats
{
    std::uint64_t num_records = 0;
    std::uint64_t num_loads = 0;
    std::uint64_t num_stores = 0;
    std::uint64_t num_ifetches = 0;
    std::uint64_t num_with_dep = 0;
    /** Unique 64 B lines touched. */
    std::uint64_t footprint_lines = 0;
    /** Footprint in bytes (lines * 64). */
    std::uint64_t footprint_bytes = 0;
    /** Longest dependency chain (records). */
    std::uint64_t max_dep_chain = 0;
    std::uint64_t records_cpu0 = 0;
    std::uint64_t records_cpu1 = 0;
};

/**
 * An immutable sequence of trace records, held once, as the columns
 * replay reads (see trace/columns.hh).
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;
    explicit TraceBuffer(TraceColumns columns)
        : _columns(std::move(columns))
    {
    }
    /** Fill the columns from @p records, in order. */
    explicit TraceBuffer(const std::vector<TraceRecord> &records);

    /** Record @p i, reassembled from the columns. */
    TraceRecord operator[](std::size_t i) const
    {
        return _columns.record(i);
    }
    std::size_t size() const { return _columns.size(); }
    bool empty() const { return _columns.empty(); }

    /**
     * Structural invariants, checked while the columns were filled:
     * every dependency points at an earlier record and every access
     * size is in [1, 64]. @return true if well-formed.
     */
    [[nodiscard]] bool validate() const { return _columns.wellFormed(); }

    /** Compute summary statistics (O(n), walks the whole trace). */
    TraceStats computeStats() const;

    /**
     * The trace's storage: per-field columns plus the per-cpu
     * program-order index, built once when the trace was. Studies
     * replay one buffer once per stack option, and benchmarks once
     * per rep, all from these arrays.
     */
    const TraceColumns &columns() const { return _columns; }

  private:
    TraceColumns _columns;
};

} // namespace trace
} // namespace stack3d

#endif // STACK3D_TRACE_BUFFER_HH
