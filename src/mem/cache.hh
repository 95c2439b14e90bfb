/**
 * @file
 * Set-associative SRAM cache state model (tags only — the simulator
 * tracks presence, dirtiness and recency, not data). Write-back,
 * write-allocate, true-LRU replacement. The line state carries a
 * per-cpu presence bitmap so a shared L2 instance can double as the
 * coherence directory for the private L1s above it.
 *
 * Line metadata is stored structure-of-arrays: contiguous per-set
 * tag and 16-bit signature arrays plus per-set valid/dirty bitmasks,
 * so a lookup is a vector signature probe (mem/tagsearch.hh) instead
 * of a pointer-striding scan over fat line structs. Replacement,
 * counter and coherence semantics are bit-identical to the previous
 * AoS implementation (first invalid way, else first strict-minimum
 * LRU).
 *
 * The model is purely functional: timing is composed by
 * MemoryHierarchy from the latencies in the params structs.
 */

#ifndef STACK3D_MEM_CACHE_HH
#define STACK3D_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "mem/params.hh"
#include "mem/tagsearch.hh"

namespace stack3d {
namespace mem {

/** Outcome of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool evicted = false;
    /** The evicted line was dirty (needs writeback). */
    bool writeback = false;
    /** Line-aligned address of the evicted line (if evicted). */
    Addr victim_addr = 0;
    /** Presence bitmap of the evicted line (for L1 back-invalidate). */
    std::uint8_t victim_presence = 0;
};

/** Running counters for a cache instance. */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0;
    /** Demand lookups issued by access(). */
    std::uint64_t tag_probes = 0;

    double
    missRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? double(misses) / double(total) : 0.0;
    }
};

/** A set-associative, write-back, true-LRU cache tag array. */
class Cache
{
  public:
    Cache(const CacheParams &params, std::string name);

    const std::string &name() const { return _name; }
    const CacheParams &params() const { return _params; }
    const CacheCounters &counters() const { return _ctr; }

    /**
     * Look up @p addr, allocating the line on a miss (write-allocate
     * for both loads and stores). Stores mark the line dirty.
     */
    CacheAccessResult access(Addr addr, bool is_store);

    /** Look up without any state change. */
    bool probe(Addr addr) const;

    /**
     * Invalidate the line holding @p addr if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /** Presence bitmap accessors (used when this cache is a shared
     *  L2 acting as the L1 directory). No-ops / 0 if line absent. */
    void setPresence(Addr addr, unsigned cpu);
    void clearPresence(Addr addr, unsigned cpu);
    std::uint8_t presence(Addr addr) const;

    /** Mark the line holding @p addr dirty if present (L1 victim
     *  written back into this cache). @return true if present. */
    bool markDirty(Addr addr);

    /** Drop all lines and reset recency (counters are kept). */
    void flush();

    std::uint64_t numSets() const { return _num_sets; }

  private:
    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    /** Way holding @p tag in @p set, or -1. */
    int findWayIn(std::uint64_t set, Addr tag) const;

    /** Flat way index of @p addr's line, or -1 if absent. */
    std::int64_t findLine(Addr addr) const;

    CacheParams _params;
    std::string _name;
    std::uint64_t _num_sets;
    unsigned _line_shift;
    unsigned _sig_stride;
    /** Probe implementation, captured at construction (see
     *  tagSearchMode()). */
    TagSearchMode _mode;

    // SoA line metadata, set-major. _valid/_dirty are per-set way
    // bitmasks (assoc <= 32); _sigs is padded to _sig_stride lanes
    // per set for the SSE2 probe.
    std::vector<Addr> _tags;             // num_sets * assoc
    std::vector<TagSig> _sigs;           // num_sets * _sig_stride
    std::vector<std::uint32_t> _valid;   // num_sets
    std::vector<std::uint32_t> _dirty;   // num_sets
    std::vector<std::uint8_t> _presence; // num_sets * assoc
    std::vector<std::uint64_t> _lru;     // num_sets * assoc

    std::uint64_t _tick = 0;    // LRU clock
    CacheCounters _ctr;
};

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_CACHE_HH
