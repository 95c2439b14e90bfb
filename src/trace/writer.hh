/**
 * @file
 * Trace generation with automatic dependency tracking.
 *
 * The paper's trace generator runs alongside a full-system simulator
 * and tags every memory record with the id of an earlier record it
 * depends on. Here, instrumented workload kernels call load()/store()
 * on a ThreadTracer. Dependencies come from two sources:
 *
 *  1. Explicit: the caller passes the record id that produced the
 *     address (e.g. the index-array load in a sparse gather) or the
 *     data being stored. This captures the address-generation chains
 *     that limit memory-level parallelism in sparse kernels.
 *  2. Implicit: a load depends on the most recent store to the same
 *     64 B line (RAW through memory), tracked automatically.
 *
 * Each record carries at most one dependency (the paper's format);
 * the explicit dependency wins when both exist.
 *
 * Per-thread traces are combined by TraceMerger, which interleaves
 * records from the threads in fixed-size chunks (modelling two cores
 * making progress at a similar rate) and remaps dependency ids into
 * the merged id space, writing the merged records straight into the
 * trace's columns.
 */

#ifndef STACK3D_TRACE_WRITER_HH
#define STACK3D_TRACE_WRITER_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "trace/buffer.hh"
#include "trace/record.hh"

namespace stack3d {
namespace trace {

/** Id of a record within a (per-thread) trace under construction. */
using RecordId = std::uint64_t;

/** Sentinel meaning "no explicit dependency". */
constexpr RecordId kNone = kNoDep;

/**
 * One thread's records, in fixed blocks of kBlockRecords. Appending
 * never moves a stored record, so however far a kernel runs past its
 * record budget, storage stays within one block of 32 B/record (plus
 * one 8 B table slot per block).
 */
class RecordBlocks
{
  public:
    static constexpr std::size_t kBlockRecords = 1024;

    std::size_t size() const { return _size; }

    const TraceRecord &
    operator[](std::size_t i) const
    {
        return (*_blocks[i / kBlockRecords])[i % kBlockRecords];
    }

    void
    push(const TraceRecord &rec)
    {
        if (_size % kBlockRecords == 0)
            _blocks.push_back(std::make_unique<Block>());
        (*_blocks.back())[_size % kBlockRecords] = rec;
        ++_size;
    }

    /** Heap bytes held: the blocks plus the block table's capacity. */
    std::size_t
    storageBytes() const
    {
        return _blocks.size() * sizeof(Block) +
               _blocks.capacity() * sizeof(_blocks[0]);
    }

  private:
    using Block = std::array<TraceRecord, kBlockRecords>;
    std::vector<std::unique_ptr<Block>> _blocks;
    std::size_t _size = 0;
};

/** Records one thread's memory instructions with dependency tracking. */
class ThreadTracer
{
  public:
    /**
     * @param cpu  cpu id stamped on every record
     * @param track_raw  track store->load dependencies through memory
     */
    explicit ThreadTracer(std::uint8_t cpu, bool track_raw = true)
        : _cpu(cpu), _track_raw(track_raw)
    {
    }

    /**
     * Record a load.
     * @param addr  byte address
     * @param ip    instruction pointer
     * @param addr_dep  record that produced this address (or kNone)
     * @param size  access size in bytes
     * @return id of the new record (usable as a future dependency)
     */
    RecordId load(Addr addr, Addr ip, RecordId addr_dep = kNone,
                  std::uint8_t size = 8);

    /**
     * Record a store.
     * @param data_dep  record that produced the stored value (or kNone)
     */
    RecordId store(Addr addr, Addr ip, RecordId data_dep = kNone,
                   std::uint8_t size = 8);

    /** Record an instruction fetch. */
    RecordId ifetch(Addr addr, std::uint8_t size = 16);

    std::size_t size() const { return _records.size(); }

    /** Steal the accumulated records (tracer resets to empty). */
    RecordBlocks take();

  private:
    RecordId push(TraceRecord rec);

    std::uint8_t _cpu;
    bool _track_raw;
    RecordBlocks _records;
    /**
     * 64 B line -> id of last store to it. Ordered map by policy
     * (lint3d det-unordered-container): only point lookups today,
     * but trace construction feeds bit-reproducible studies, and an
     * ordered container can never leak hash order into results.
     */
    std::map<Addr, RecordId> _last_writer;
};

/**
 * Merge per-thread traces into one SMP trace by chunk-wise round-robin
 * interleaving, remapping dependency ids into the merged space. A
 * thread's chunk k lands contiguously, so the remap keeps one merged
 * base index per chunk, not one per record.
 */
class TraceMerger
{
  public:
    /** @param chunk  records taken from each thread per turn */
    explicit TraceMerger(std::size_t chunk = 64) : _chunk(chunk) {}

    /**
     * Interleave @p thread_traces (already stamped with cpu ids).
     * Dependencies always reference records from the same source
     * thread, so remapping preserves the "earlier record" invariant.
     */
    TraceBuffer merge(std::vector<RecordBlocks> thread_traces) const;

  private:
    std::size_t _chunk;
};

} // namespace trace
} // namespace stack3d

#endif // STACK3D_TRACE_WRITER_HH
