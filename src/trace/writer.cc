#include "writer.hh"

#include <algorithm>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace stack3d {
namespace trace {

RecordId
ThreadTracer::push(TraceRecord rec)
{
    RecordId id = _records.size();
    stack3d_assert(!rec.hasDep() || rec.dep < id,
                   "dependency must reference an earlier record");
    _records.push(rec);
    return id;
}

RecordId
ThreadTracer::load(Addr addr, Addr ip, RecordId addr_dep, std::uint8_t size)
{
    TraceRecord rec;
    rec.addr = addr;
    rec.ip = ip;
    rec.cpu = _cpu;
    rec.op = MemOp::Load;
    rec.size = size;

    if (addr_dep != kNone) {
        rec.dep = addr_dep;
    } else if (_track_raw) {
        auto it = _last_writer.find(addr >> 6);
        if (it != _last_writer.end())
            rec.dep = it->second;
    }
    return push(rec);
}

RecordId
ThreadTracer::store(Addr addr, Addr ip, RecordId data_dep, std::uint8_t size)
{
    TraceRecord rec;
    rec.addr = addr;
    rec.ip = ip;
    rec.cpu = _cpu;
    rec.op = MemOp::Store;
    rec.size = size;
    if (data_dep != kNone)
        rec.dep = data_dep;

    RecordId id = push(rec);
    if (_track_raw)
        _last_writer[addr >> 6] = id;
    return id;
}

RecordId
ThreadTracer::ifetch(Addr addr, std::uint8_t size)
{
    TraceRecord rec;
    rec.addr = addr;
    rec.ip = addr;
    rec.cpu = _cpu;
    rec.op = MemOp::Ifetch;
    rec.size = size;
    return push(rec);
}

RecordBlocks
ThreadTracer::take()
{
    _last_writer.clear();
    return std::exchange(_records, RecordBlocks());
}

TraceBuffer
TraceMerger::merge(std::vector<RecordBlocks> thread_traces) const
{
    stack3d_assert(_chunk > 0, "merge chunk must be positive");

    std::size_t total = 0;
    for (const auto &tt : thread_traces)
        total += tt.size();

    // chunk_base[t][k]: merged id of the first record of thread t's
    // k-th chunk. Chunks land contiguously, so local id l maps to
    // chunk_base[t][l / chunk] + l % chunk.
    std::vector<std::vector<std::uint64_t>> chunk_base(
        thread_traces.size());
    for (std::size_t t = 0; t < thread_traces.size(); ++t)
        chunk_base[t].reserve((thread_traces[t].size() + _chunk - 1) /
                              _chunk);

    TraceColumns::Builder out(total);
    std::uint64_t next = 0;
    std::vector<std::size_t> pos(thread_traces.size(), 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t t = 0; t < thread_traces.size(); ++t) {
            const RecordBlocks &src = thread_traces[t];
            std::size_t take_n = std::min(_chunk, src.size() - pos[t]);
            if (take_n == 0)
                continue;
            chunk_base[t].push_back(next);
            const std::vector<std::uint64_t> &bases = chunk_base[t];
            for (std::size_t k = 0; k < take_n; ++k) {
                std::size_t local = pos[t] + k;
                TraceRecord rec = src[local];
                if (rec.hasDep()) {
                    // Same-thread, earlier-record dependency: its
                    // chunk was placed in this or an earlier turn.
                    S3D_DCHECK(rec.dep < local)
                        << "thread " << t << " record " << local
                        << " depends on " << rec.dep;
                    rec.dep = bases[S3D_BOUNDS(rec.dep / _chunk,
                                               bases.size())] +
                              rec.dep % _chunk;
                }
                out.push(rec);
            }
            next += take_n;
            pos[t] += take_n;
            progress = true;
        }
    }

    S3D_DCHECK(next == total) << "merged " << next << " of " << total;
    TraceBuffer buf(out.finish());
    stack3d_assert(buf.validate(), "merged trace failed validation");
    return buf;
}

} // namespace trace
} // namespace stack3d
