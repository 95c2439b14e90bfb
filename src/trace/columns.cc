#include "trace/columns.hh"

#include "common/logging.hh"

namespace stack3d {
namespace trace {

TraceColumns::Builder::Builder(std::size_t n)
    : _batch(kDecodeBatch), _capacity(n)
{
    stack3d_assert(n <= kMaxTraceRecords, "trace of ", n,
                   " records exceeds the 32-bit record index");
    _cols._addr.reserve(n);
    _cols._ip.reserve(n);
    _cols._dep.reserve(n);
    _cols._cpu.reserve(n);
    _cols._op.reserve(n);
    _cols._size.reserve(n);
}

void
TraceColumns::Builder::flushBatch()
{
    const std::size_t base = _cols.size();
    const std::size_t end = base + _staged;
    stack3d_assert(end <= _capacity, "pushed more than the ", _capacity,
                   " records the trace was sized for");
    const TraceRecord *recs = _batch.data();
    // Growing within the reserved capacity only zero-fills the batch's
    // slots, which the passes below overwrite while they are in cache.
    _cols._addr.resize(end);
    _cols._ip.resize(end);
    _cols._dep.resize(end);
    _cols._cpu.resize(end);
    _cols._op.resize(end);
    _cols._size.resize(end);
    for (std::size_t k = 0; k < _staged; ++k)
        _cols._addr[base + k] = recs[k].addr;
    for (std::size_t k = 0; k < _staged; ++k)
        _cols._ip[base + k] = recs[k].ip;
    bool ok = true;
    for (std::size_t k = 0; k < _staged; ++k) {
        const std::uint64_t d = recs[k].dep;
        ok = ok && (d == kNoDep || d < base + k);
        _cols._dep[base + k] =
            d == kNoDep ? kNoDepIndex : std::uint32_t(d);
    }
    for (std::size_t k = 0; k < _staged; ++k) {
        _cols._cpu[base + k] = recs[k].cpu;
        ++_cpu_count[recs[k].cpu];
    }
    for (std::size_t k = 0; k < _staged; ++k)
        _cols._op[base + k] = recs[k].op;
    for (std::size_t k = 0; k < _staged; ++k) {
        ok = ok && recs[k].size != 0 && recs[k].size <= 64;
        _cols._size[base + k] = recs[k].size;
    }
    _cols._well_formed = _cols._well_formed && ok;
    ++_cols._decode_batches;
    _staged = 0;
}

TraceColumns
TraceColumns::Builder::finish()
{
    if (_staged > 0)
        flushBatch();
    const std::size_t n = _cols.size();
    stack3d_assert(n == _capacity, "trace sized for ", _capacity,
                   " records received ", n);

    // Per-cpu program-order index, prefix-bucketed into one array,
    // built once here so every replay of this trace reuses it.
    unsigned cpus = 0;
    for (unsigned c = 0; c < _cpu_count.size(); ++c) {
        if (_cpu_count[c] > 0)
            cpus = c + 1;
    }
    _cols._order_base.assign(cpus > 0 ? cpus + 1 : 0, 0);
    for (unsigned c = 0; c < cpus; ++c)
        _cols._order_base[c + 1] = _cols._order_base[c] + _cpu_count[c];
    _cols._order.resize(n);
    std::array<std::uint64_t, 256> fill{};
    for (unsigned c = 0; c < cpus; ++c)
        fill[c] = _cols._order_base[c];
    const std::uint8_t *cpu = _cols._cpu.data();
    for (std::size_t i = 0; i < n; ++i)
        _cols._order[fill[cpu[i]]++] = std::uint32_t(i);
    return std::move(_cols);
}

std::size_t
TraceColumns::ownedBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return bytes(_addr) + bytes(_ip) + bytes(_dep) + bytes(_cpu) +
           bytes(_op) + bytes(_size) + bytes(_order_base) +
           bytes(_order);
}

} // namespace trace
} // namespace stack3d
