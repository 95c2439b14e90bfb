#include "cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace stack3d {
namespace mem {

Cache::Cache(const CacheParams &params, std::string name)
    : _params(params), _name(std::move(name))
{
    if (params.size_bytes == 0 || params.assoc == 0)
        stack3d_fatal("cache '", _name, "' has zero size or assoc");
    if (params.assoc > 32)
        stack3d_fatal("cache '", _name, "' assoc ", params.assoc,
                      " exceeds the 32-way metadata bitmasks");
    if (!units::isPowerOfTwo(params.line_bytes))
        stack3d_fatal("cache '", _name, "' line size not a power of two");
    _num_sets =
        params.size_bytes / (std::uint64_t(params.line_bytes) *
                             params.assoc);
    if (_num_sets == 0 || !units::isPowerOfTwo(_num_sets)) {
        stack3d_fatal("cache '", _name, "': ", _num_sets,
                      " sets (must be a non-zero power of two; adjust "
                      "associativity)");
    }
    _line_shift = units::floorLog2(params.line_bytes);
    _sig_stride = sigStride(params.assoc);
    _mode = tagSearchMode();
    _tags.resize(_num_sets * params.assoc);
    _sigs.resize(_num_sets * _sig_stride);
    _valid.resize(_num_sets);
    _dirty.resize(_num_sets);
    _presence.resize(_num_sets * params.assoc);
    _lru.resize(_num_sets * params.assoc);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> _line_shift) & (_num_sets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> _line_shift;
}

int
Cache::findWayIn(std::uint64_t set, Addr tag) const
{
    return findWay(_mode, &_sigs[set * _sig_stride],
                   &_tags[set * _params.assoc], _valid[set],
                   _params.assoc, tag);
}

std::int64_t
Cache::findLine(Addr addr) const
{
    std::uint64_t set = setIndex(addr);
    int way = findWayIn(set, tagOf(addr));
    if (way < 0)
        return -1;
    return std::int64_t(set * _params.assoc + unsigned(way));
}

CacheAccessResult
Cache::access(Addr addr, bool is_store)
{
    CacheAccessResult res;
    ++_tick;
    ++_ctr.tag_probes;

    std::uint64_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    int way = findWayIn(set, tag);
    if (way >= 0) {
        ++_ctr.hits;
        res.hit = true;
        std::uint64_t flat = set * _params.assoc + unsigned(way);
        _lru[flat] = _tick;
        if (is_store)
            _dirty[set] |= std::uint32_t(1u) << unsigned(way);
        return res;
    }

    ++_ctr.misses;

    // Choose a victim: first invalid way if any, else the first way
    // holding the strict-minimum LRU stamp (identical order to the
    // old struct scan).
    const std::uint32_t all_ways =
        _params.assoc == 32 ? ~std::uint32_t(0)
                            : (std::uint32_t(1u) << _params.assoc) - 1u;
    std::uint32_t invalid = ~_valid[set] & all_ways;
    unsigned victim;
    if (invalid) {
        victim = unsigned(std::countr_zero(invalid));
    } else {
        const std::uint64_t *lru = &_lru[set * _params.assoc];
        victim = 0;
        for (unsigned w = 1; w < _params.assoc; ++w) {
            if (lru[w] < lru[victim])
                victim = w;
        }
    }

    std::uint64_t flat = set * _params.assoc + victim;
    std::uint32_t bit = std::uint32_t(1u) << victim;
    if (_valid[set] & bit) {
        ++_ctr.evictions;
        res.evicted = true;
        res.victim_addr = _tags[flat] << _line_shift;
        res.victim_presence = _presence[flat];
        if (_dirty[set] & bit) {
            ++_ctr.writebacks;
            res.writeback = true;
        }
    }

    _tags[flat] = tag;
    _sigs[set * _sig_stride + victim] = sigOf(tag);
    _valid[set] |= bit;
    if (is_store)
        _dirty[set] |= bit;
    else
        _dirty[set] &= ~bit;
    _presence[flat] = 0;
    _lru[flat] = _tick;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) >= 0;
}

bool
Cache::invalidate(Addr addr)
{
    std::int64_t flat = findLine(addr);
    if (flat < 0)
        return false;
    ++_ctr.invalidations;
    std::uint64_t set = std::uint64_t(flat) / _params.assoc;
    std::uint32_t bit =
        std::uint32_t(1u) << unsigned(std::uint64_t(flat) %
                                      _params.assoc);
    bool was_dirty = (_dirty[set] & bit) != 0;
    _valid[set] &= ~bit;
    _dirty[set] &= ~bit;
    _presence[std::uint64_t(flat)] = 0;
    return was_dirty;
}

void
Cache::setPresence(Addr addr, unsigned cpu)
{
    stack3d_assert(cpu < 8, "presence bitmap supports 8 cpus");
    std::int64_t flat = findLine(addr);
    if (flat >= 0)
        _presence[std::uint64_t(flat)] |= std::uint8_t(1u << cpu);
}

void
Cache::clearPresence(Addr addr, unsigned cpu)
{
    stack3d_assert(cpu < 8, "presence bitmap supports 8 cpus");
    std::int64_t flat = findLine(addr);
    if (flat >= 0)
        _presence[std::uint64_t(flat)] &= std::uint8_t(~(1u << cpu));
}

std::uint8_t
Cache::presence(Addr addr) const
{
    std::int64_t flat = findLine(addr);
    return flat >= 0 ? _presence[std::uint64_t(flat)] : 0;
}

bool
Cache::markDirty(Addr addr)
{
    std::int64_t flat = findLine(addr);
    if (flat < 0)
        return false;
    std::uint64_t set = std::uint64_t(flat) / _params.assoc;
    _dirty[set] |= std::uint32_t(1u)
                   << unsigned(std::uint64_t(flat) % _params.assoc);
    return true;
}

void
Cache::flush()
{
    std::fill(_tags.begin(), _tags.end(), Addr(0));
    std::fill(_sigs.begin(), _sigs.end(), TagSig(0));
    std::fill(_valid.begin(), _valid.end(), 0u);
    std::fill(_dirty.begin(), _dirty.end(), 0u);
    std::fill(_presence.begin(), _presence.end(), std::uint8_t(0));
    std::fill(_lru.begin(), _lru.end(), std::uint64_t(0));
    _tick = 0;
}

} // namespace mem
} // namespace stack3d
