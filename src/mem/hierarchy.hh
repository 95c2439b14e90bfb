/**
 * @file
 * The full memory hierarchy of the Memory+Logic study: per-core L1I
 * and L1D, a shared last-level cache that is either SRAM (options a,
 * b of Figure 7) or a 3D-stacked sectored DRAM cache (options c, d),
 * an off-die bus, and banked DDR main memory.
 *
 * The hierarchy is a timing composer over the functional tag models:
 * access() walks the levels, reserving bus and DRAM-bank time as it
 * goes, and returns the completion cycle of the reference.
 *
 * Modelling notes (documented simplifications):
 *  - Tag state updates at lookup time even though data "arrives"
 *    later, so a second access to an in-flight line scores a hit at
 *    full hit latency rather than merging into an MSHR.
 *  - Inclusion between LLC and the L1s is enforced with direct
 *    back-invalidation probes; a two-cpu directory is exact this way.
 *  - Store coherence: a store probes the other core's L1 and
 *    invalidates a shared copy (counted; no extra latency is charged
 *    on the store itself).
 */

#ifndef STACK3D_MEM_HIERARCHY_HH
#define STACK3D_MEM_HIERARCHY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/params.hh"
#include "trace/record.hh"

namespace stack3d {

namespace obs {
class CounterSet;
} // namespace obs

namespace mem {

/** Banked DDR main memory behind the off-die bus. */
class MainMemory
{
  public:
    explicit MainMemory(const MainMemoryParams &params)
        : _params(params),
          _banks(params.num_banks, params.page_bytes, params.timing,
                 "main_memory")
    {
    }

    /** Read: fixed interface overhead plus bank timing. */
    Cycles
    read(Addr addr, Cycles start, bool speculative = false)
    {
        ++_reads;
        return _banks.access(addr, start + _params.fixed_overhead,
                             speculative);
    }

    /**
     * Write (fire-and-forget). Writes land in the controller's write
     * buffer and drain opportunistically (row-hit-first scheduling),
     * so they do not serialize against the in-order read stream the
     * way a naive bank reservation would; only the byte count is
     * tracked (the off-die bus occupancy is charged by the caller).
     */
    void
    write(Addr addr, Cycles start)
    {
        (void)addr;
        (void)start;
        ++_writes;
    }

    const DramBankEngine &banks() const { return _banks; }
    std::uint64_t reads() const { return _reads; }
    std::uint64_t writes() const { return _writes; }

  private:
    MainMemoryParams _params;
    DramBankEngine _banks;
    std::uint64_t _reads = 0;
    std::uint64_t _writes = 0;
};

/** Aggregate counters of one simulation. */
struct HierarchyCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t coherence_invalidations = 0;
    std::uint64_t offdie_fill_bytes = 0;
    std::uint64_t offdie_writeback_bytes = 0;
    std::uint64_t prefetches = 0;
    /** Demand (non-prefetch) L1D misses. */
    std::uint64_t demand_l1d_misses = 0;
};

/** One tracked stream of the per-core stride prefetcher. */
struct StreamEntry
{
    Addr next_line = 0;
    std::int64_t stride = 0;   ///< in lines, +1 or -1
    unsigned confidence = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
};

/** The composed two-core memory hierarchy. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /**
     * Perform one memory reference.
     * @param cpu   issuing core
     * @param addr  byte address
     * @param op    load / store / ifetch
     * @param start cycle the reference begins its L1 access
     * @return completion cycle
     */
    Cycles access(unsigned cpu, Addr addr, trace::MemOp op, Cycles start);

    const HierarchyParams &params() const { return _params; }
    const HierarchyCounters &counters() const { return _ctr; }
    const Cache &l1d(unsigned cpu) const { return *_l1d[cpu]; }
    const Cache &l1i(unsigned cpu) const { return *_l1i[cpu]; }

    /** SRAM L2 (options a, b); null for DRAM-cache options. */
    const Cache *l2() const { return _l2.get(); }

    /** Stacked DRAM cache (options c, d); null otherwise. */
    const DramCacheArray *dramCache() const { return _dram_cache.get(); }
    const DramBankEngine *dramBanks() const { return _dram_banks.get(); }

    const Bus &bus() const { return _bus; }
    const MainMemory &mainMemory() const { return _main_memory; }

    /** Total off-die traffic (fills + writebacks) in bytes. */
    std::uint64_t
    offDieBytes() const
    {
        return _ctr.offdie_fill_bytes + _ctr.offdie_writeback_bytes;
    }

    /**
     * Append a machine-readable snapshot of every level's counters
     * to @p out under @p prefix: per-cache hits/misses/miss_rate/
     * mpkr (misses per kilo references), DRAM cache and bank
     * behaviour, bus bytes/occupancy, and main-memory traffic.
     * @param total_cycles run length, used for bus occupancy; pass 0
     *        to skip the rate-style counters.
     */
    void appendCounters(obs::CounterSet &out,
                        const std::string &prefix = "",
                        Cycles total_cycles = 0) const;

  private:
    Addr lineAddr(Addr addr) const;
    void handleL1Victim(unsigned cpu, const CacheAccessResult &res,
                        Cycles when);
    void backInvalidateL1s(Addr line_addr);
    void coherenceOnStore(unsigned cpu, Addr addr);
    Cycles missToMemory(Addr addr, std::uint64_t bytes, Cycles when,
                        bool speculative);

    /** LLC lookup for a line miss in L1. @return completion cycle. */
    Cycles llcAccess(unsigned cpu, Addr addr, bool is_store, Cycles when,
                     bool speculative);

    /** Train the stream prefetcher on an L1D demand access and launch
     *  prefetch fills for confirmed streams. */
    void trainPrefetcher(unsigned cpu, Addr line, Cycles when,
                         bool was_hit);

    /** Fill @p line into cpu's L1D + the LLC, off the critical path. */
    void prefetchLine(unsigned cpu, Addr line, Cycles when);

    HierarchyParams _params;
    std::vector<std::unique_ptr<Cache>> _l1d;
    std::vector<std::unique_ptr<Cache>> _l1i;
    std::unique_ptr<Cache> _l2;
    std::unique_ptr<DramCacheArray> _dram_cache;
    std::unique_ptr<DramBankEngine> _dram_banks;
    Bus _bus;
    MainMemory _main_memory;
    HierarchyCounters _ctr;
    std::vector<std::vector<StreamEntry>> _streams;   // per cpu
    // Stream-match acceleration: the per-cpu next_line column plus
    // its 16-bit signature array and validity mask, searched with the
    // same tag-search primitives the caches use. Kept in sync with
    // _streams by trainPrefetcher (the only writer).
    std::vector<std::vector<Addr>> _stream_next;      // per cpu
    std::vector<std::vector<TagSig>> _stream_sigs;    // per cpu
    std::vector<std::uint32_t> _stream_valid;         // per cpu
    TagSearchMode _tag_mode = TagSearchMode::Scalar;
    std::uint64_t _stream_clock = 0;
};

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_HIERARCHY_HH
