#include "buffer.hh"

#include <algorithm>

namespace stack3d {
namespace trace {

const char *
memOpName(MemOp op)
{
    switch (op) {
      case MemOp::Load:
        return "load";
      case MemOp::Store:
        return "store";
      case MemOp::Ifetch:
        return "ifetch";
    }
    return "unknown";
}

TraceBuffer::TraceBuffer(const std::vector<TraceRecord> &records)
{
    TraceColumns::Builder builder(records.size());
    for (const TraceRecord &rec : records)
        builder.push(rec);
    _columns = builder.finish();
}

TraceStats
TraceBuffer::computeStats() const
{
    const std::size_t n = size();
    const std::uint64_t *addr = _columns.addr();
    const std::uint32_t *dep = _columns.dep();
    const std::uint8_t *cpu = _columns.cpu();
    const MemOp *op = _columns.op();

    TraceStats st;
    st.num_records = n;

    // Unique 64 B lines via sort+unique: deterministic (no hash
    // iteration anywhere near results) and cache-friendlier than a
    // node-based set for multi-million-record traces.
    std::vector<Addr> lines;
    lines.reserve(n);
    // depth[i] = length of the dependency chain ending at record i.
    std::vector<std::uint32_t> depth(n, 1);

    for (std::size_t i = 0; i < n; ++i) {
        switch (op[i]) {
          case MemOp::Load:
            ++st.num_loads;
            break;
          case MemOp::Store:
            ++st.num_stores;
            break;
          case MemOp::Ifetch:
            ++st.num_ifetches;
            break;
        }
        if (dep[i] != kNoDepIndex) {
            ++st.num_with_dep;
            depth[i] = depth[dep[i]] + 1;
        }
        st.max_dep_chain = std::max<std::uint64_t>(st.max_dep_chain,
                                                   depth[i]);
        if (cpu[i] == 0)
            ++st.records_cpu0;
        else
            ++st.records_cpu1;
        lines.push_back(addr[i] >> 6);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    st.footprint_lines = lines.size();
    st.footprint_bytes = st.footprint_lines * 64;
    return st;
}

} // namespace trace
} // namespace stack3d
