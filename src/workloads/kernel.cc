#include "kernel.hh"

namespace stack3d {
namespace workloads {

ArrayRef
SetupContext::alloc(std::uint64_t count, std::uint32_t elem_size)
{
    stack3d_assert(count > 0 && elem_size > 0, "empty allocation");
    ArrayRef ref;
    ref.base = _next;
    ref.elem_size = elem_size;
    ref.count = count;
    std::uint64_t bytes = count * std::uint64_t(elem_size);
    // 4 KB-align the next array, matching page-granular placement.
    _next += (bytes + 4095) & ~std::uint64_t(4095);
    return ref;
}

trace::RecordId
KernelContext::stream(const ArrayRef &arr, std::uint64_t idx,
                      std::uint64_t bytes, unsigned gran, unsigned site,
                      bool is_store)
{
    stack3d_assert(gran > 0 && gran <= 64,
                   "stream granularity must be in (0, 64]");
    Addr start = arr.at(idx);
    stack3d_assert(start + bytes <= arr.base + arr.sizeBytes(),
                   "stream overruns array");
    trace::RecordId last = trace::kNone;
    std::uint8_t rec_size = std::uint8_t(gran);
    for (Addr a = start; a < start + bytes; a += gran) {
        if (is_store)
            last = _tracer.store(a, siteIp(site), trace::kNone, rec_size);
        else
            last = _tracer.load(a, siteIp(site), trace::kNone, rec_size);
    }
    return last;
}

trace::TraceBuffer
RmsKernel::generate(const WorkloadConfig &cfg) const
{
    stack3d_assert(cfg.num_threads >= 1, "need at least one thread");
    SetupContext setup(cfg);
    std::unique_ptr<KernelState> state = buildState(setup);
    stack3d_assert(state != nullptr, "kernel produced no state");

    std::vector<trace::RecordBlocks> threads;
    threads.reserve(cfg.num_threads);
    for (unsigned t = 0; t < cfg.num_threads; ++t) {
        KernelContext ctx(t, cfg.num_threads, cfg.records_per_thread,
                          cfg.seed);
        runThread(ctx, *state);
        stack3d_assert(ctx.recordCount() > 0,
                       "kernel '", name(), "' produced an empty trace");
        threads.push_back(ctx.takeRecords());
    }
    // The merge never reads the kernel's data structures; freeing
    // them first keeps them out of generation's peak.
    state.reset();
    return trace::TraceMerger().merge(std::move(threads));
}

} // namespace workloads
} // namespace stack3d
