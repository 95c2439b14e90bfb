/**
 * @file
 * The storage of a trace: one array per record field.
 *
 * Replay touches the records millions of times per study cell, and
 * mostly only addr/dep/cpu/op, so a trace is held once, as
 * contiguous per-field columns the engine streams, plus the per-cpu
 * program-order index the issue window refills from. Nothing keeps a
 * 32-byte TraceRecord per record: writers push records through a
 * TraceColumns::Builder, which fills the columns one L1-sized batch
 * at a time, and TraceBuffer::operator[] reassembles a record from
 * the columns. The on-disk format (trace/file.hh) is unchanged.
 */

#ifndef STACK3D_TRACE_COLUMNS_HH
#define STACK3D_TRACE_COLUMNS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace stack3d {
namespace trace {

/** Dependency column sentinel: the record has no dependency. */
constexpr std::uint32_t kNoDepIndex = ~std::uint32_t(0);

/**
 * Most records one trace may hold. Record indices, dependencies
 * included, are stored in 32 bits, and the largest index must stay
 * below kNoDepIndex.
 */
constexpr std::uint64_t kMaxTraceRecords = kNoDepIndex;

/** A trace's records as per-field columns, plus a per-cpu order index. */
class TraceColumns
{
  public:
    /** Records filled per batch; one batch of staged records (32 KiB)
     *  and its output columns (~27 KiB) fit an L1D/L2 comfortably. */
    static constexpr std::size_t kDecodeBatch = 1024;

    /** Fills the columns (defined below). */
    class Builder;

    TraceColumns() = default;

    std::size_t size() const { return _addr.size(); }
    bool empty() const { return _addr.empty(); }

    /** Batches the columns were filled in: ceil(size() / kDecodeBatch). */
    std::uint64_t decodeBatches() const { return _decode_batches; }

    /**
     * True when every dependency points at an earlier record and
     * every access size is in [1, 64]. Decided while filling, before
     * a dependency is narrowed to the 32-bit column.
     */
    bool wellFormed() const { return _well_formed; }

    const std::uint64_t *addr() const { return _addr.data(); }
    const std::uint64_t *ip() const { return _ip.data(); }
    /** Index of the record each one depends on, or kNoDepIndex. */
    const std::uint32_t *dep() const { return _dep.data(); }
    const std::uint8_t *cpu() const { return _cpu.data(); }
    const MemOp *op() const { return _op.data(); }
    const std::uint8_t *accessSize() const { return _size.data(); }

    /** Highest cpu id seen plus one (0 for an empty trace). */
    unsigned
    numCpus() const
    {
        return _order_base.empty() ? 0 : unsigned(_order_base.size() - 1);
    }

    /** Records tagged with @p cpu (0 past numCpus()). */
    std::uint64_t
    cpuCount(unsigned cpu) const
    {
        return cpu < numCpus() ? _order_base[cpu + 1] - _order_base[cpu]
                               : 0;
    }

    /** Offset of @p cpu's bucket in order() (size() past numCpus()). */
    std::uint64_t
    orderBase(unsigned cpu) const
    {
        return cpu < numCpus() ? _order_base[cpu] : size();
    }

    /** Record indices, bucketed per cpu in program order: the
     *  indices of cpu c's records, ascending, occupy
     *  [orderBase(c), orderBase(c) + cpuCount(c)). */
    const std::uint32_t *order() const { return _order.data(); }

    /** Record @p i reassembled from the columns. */
    TraceRecord
    record(std::size_t i) const
    {
        TraceRecord rec;
        rec.addr = _addr[i];
        rec.ip = _ip[i];
        rec.dep = _dep[i] == kNoDepIndex ? kNoDep : _dep[i];
        rec.cpu = _cpu[i];
        rec.op = _op[i];
        rec.size = _size[i];
        return rec;
    }

    /** Heap bytes held, counted from the containers' capacities. */
    std::size_t ownedBytes() const;

  private:
    std::vector<std::uint64_t> _addr;
    std::vector<std::uint64_t> _ip;
    std::vector<std::uint32_t> _dep;
    std::vector<std::uint8_t> _cpu;
    std::vector<MemOp> _op;
    std::vector<std::uint8_t> _size;
    /** numCpus() + 1 prefix offsets into _order; the last is size(). */
    std::vector<std::uint64_t> _order_base;
    std::vector<std::uint32_t> _order;
    std::uint64_t _decode_batches = 0;
    bool _well_formed = true;
};

/**
 * Fills the columns of an @p n-record trace. Records are pushed
 * in trace order and staged; each full batch is written into the
 * columns one field at a time, so each pass is a tight gather with
 * a single output stream. finish() builds the order index.
 */
class TraceColumns::Builder
{
  public:
    /** @param n  exact record count; must not exceed
     *            kMaxTraceRecords */
    explicit Builder(std::size_t n);

    void
    push(const TraceRecord &rec)
    {
        _batch[_staged++] = rec;
        if (_staged == kDecodeBatch)
            flushBatch();
    }

    /** The filled columns; every one of the n records must have
     *  been pushed. */
    TraceColumns finish();

  private:
    void flushBatch();

    TraceColumns _cols;
    std::vector<TraceRecord> _batch;
    std::size_t _staged = 0;
    std::size_t _capacity = 0;
    std::array<std::uint64_t, 256> _cpu_count{};
};

} // namespace trace
} // namespace stack3d

#endif // STACK3D_TRACE_COLUMNS_HH
