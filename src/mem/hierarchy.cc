#include "hierarchy.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace stack3d {
namespace mem {

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : _params(params), _bus(params.bus), _main_memory(params.main_memory)
{
    if (params.num_cpus == 0 || params.num_cpus > 8)
        stack3d_fatal("hierarchy supports 1-8 cpus, got ",
                      params.num_cpus);

    for (unsigned c = 0; c < params.num_cpus; ++c) {
        _l1d.push_back(std::make_unique<Cache>(
            params.l1d, "l1d" + std::to_string(c)));
        _l1i.push_back(std::make_unique<Cache>(
            params.l1i, "l1i" + std::to_string(c)));
    }

    if (params.prefetcher.num_streams > 32)
        stack3d_fatal("prefetcher num_streams ",
                      params.prefetcher.num_streams,
                      " exceeds the 32-stream validity bitmask");
    _tag_mode = tagSearchMode();
    _streams.resize(params.num_cpus);
    for (auto &table : _streams)
        table.resize(params.prefetcher.num_streams);
    _stream_next.resize(params.num_cpus);
    _stream_sigs.resize(params.num_cpus);
    _stream_valid.assign(params.num_cpus, 0);
    for (unsigned c = 0; c < params.num_cpus; ++c) {
        _stream_next[c].assign(params.prefetcher.num_streams, 0);
        _stream_sigs[c].assign(sigStride(params.prefetcher.num_streams),
                               0);
    }

    if (_params.usesDramCache()) {
        _dram_cache = std::make_unique<DramCacheArray>(
            params.dram_cache, "dram_cache");
        _dram_banks = std::make_unique<DramBankEngine>(
            params.dram_cache.num_banks, params.dram_cache.page_bytes,
            params.dram_cache.timing, "dram_cache_banks");
    } else {
        _l2 = std::make_unique<Cache>(params.l2, "l2");
    }
}

Addr
MemoryHierarchy::lineAddr(Addr addr) const
{
    return addr & ~Addr(_params.l1d.line_bytes - 1);
}

Cycles
MemoryHierarchy::access(unsigned cpu, Addr addr, trace::MemOp op,
                        Cycles start)
{
    stack3d_assert(cpu < _params.num_cpus, "cpu index out of range");
    ++_ctr.accesses;
    bool is_store = false;
    Cache *l1 = nullptr;
    switch (op) {
      case trace::MemOp::Load:
        ++_ctr.loads;
        l1 = _l1d[cpu].get();
        break;
      case trace::MemOp::Store:
        ++_ctr.stores;
        is_store = true;
        l1 = _l1d[cpu].get();
        break;
      case trace::MemOp::Ifetch:
        ++_ctr.ifetches;
        l1 = _l1i[cpu].get();
        break;
    }

    Addr line = lineAddr(addr);
    Cycles t_l1 = start + l1->params().latency;
    CacheAccessResult res = l1->access(line, is_store);

    if (is_store)
        coherenceOnStore(cpu, line);
    if (res.evicted)
        handleL1Victim(cpu, res, t_l1);
    if (_params.prefetcher.enable && op != trace::MemOp::Ifetch)
        trainPrefetcher(cpu, line, t_l1, res.hit);
    if (res.hit)
        return t_l1;

    if (op != trace::MemOp::Ifetch)
        ++_ctr.demand_l1d_misses;
    return llcAccess(cpu, line, is_store, t_l1,
                     /*speculative=*/false);
}

void
MemoryHierarchy::trainPrefetcher(unsigned cpu, Addr line, Cycles when,
                                 bool was_hit)
{
    const PrefetcherParams &pp = _params.prefetcher;
    auto &table = _streams[cpu];
    Addr *next_lines = _stream_next[cpu].data();
    TagSig *sigs = _stream_sigs[cpu].data();
    ++_stream_clock;
    auto line_bytes = std::int64_t(_params.l1d.line_bytes);

    // Streams advance on any demand access that reaches their
    // expected next line (hits on previously prefetched lines keep
    // the stream alive and pull the window forward). The match — the
    // first valid stream expecting exactly this line — is the same
    // first-match search the cache tag arrays do, over the mirrored
    // next_line column, so it vectorizes with the same primitives;
    // the common no-match case rejects on signatures alone.
    int w = findWay(_tag_mode, sigs, next_lines, _stream_valid[cpu],
                    pp.num_streams, line);
    if (w >= 0) {
        StreamEntry &entry = table[unsigned(w)];
        entry.last_use = _stream_clock;
        entry.next_line =
            Addr(std::int64_t(line) + entry.stride * line_bytes);
        next_lines[w] = entry.next_line;
        sigs[w] = sigOf(entry.next_line);
        if (entry.confidence < pp.train_threshold) {
            ++entry.confidence;
            return;
        }
        if (entry.confidence == pp.train_threshold) {
            // Just confirmed: establish the full lookahead window.
            ++entry.confidence;
            Addr pf = entry.next_line;
            for (unsigned d = 0; d < pp.degree; ++d) {
                prefetchLine(cpu, pf, when);
                pf = Addr(std::int64_t(pf) + entry.stride * line_bytes);
            }
        } else {
            // Steady state: one line per demand keeps the window
            // `degree` lines deep.
            Addr pf = Addr(std::int64_t(line) +
                           entry.stride * line_bytes *
                               std::int64_t(pp.degree));
            prefetchLine(cpu, pf, when);
        }
        return;
    }

    // New streams are allocated on demand misses only.
    if (was_hit)
        return;

    unsigned victim = 0;
    for (unsigned s = 0; s < pp.num_streams; ++s) {
        if (!table[s].valid) {
            victim = s;
            break;
        }
        if (table[s].last_use < table[victim].last_use)
            victim = s;
    }
    StreamEntry &lru = table[victim];
    lru.valid = true;
    lru.stride = 1;
    lru.confidence = 0;
    lru.last_use = _stream_clock;
    lru.next_line = line + Addr(line_bytes);
    next_lines[victim] = lru.next_line;
    sigs[victim] = sigOf(lru.next_line);
    _stream_valid[cpu] |= std::uint32_t(1u) << victim;
}

void
MemoryHierarchy::prefetchLine(unsigned cpu, Addr line, Cycles when)
{
    if (_l1d[cpu]->probe(line))
        return;

    // Flow control: skip the prefetch when the resource it would
    // occupy is already booked far into the future; demand misses
    // must not starve behind speculative traffic.
    Cycles horizon = when + _params.prefetcher.max_backlog;
    bool llc_hit = _l2 ? _l2->probe(line)
                       : (_dram_cache && _dram_cache->probe(line));
    if (llc_hit) {
        if (_dram_banks && _dram_banks->busyUntil(line) > horizon)
            return;
    } else {
        if (_bus.nextFree() > horizon)
            return;
    }

    ++_ctr.prefetches;
    // Fill through the normal LLC path (reserving bus/bank time) and
    // install in the L1; completion time is discarded — prefetches
    // are off the critical path.
    llcAccess(cpu, line, /*is_store=*/false, when, /*speculative=*/true);
    CacheAccessResult res = _l1d[cpu]->access(line, /*is_store=*/false);
    if (res.evicted)
        handleL1Victim(cpu, res, when);
}

void
MemoryHierarchy::coherenceOnStore(unsigned cpu, Addr line)
{
    if (_params.num_cpus < 2)
        return;
    for (unsigned other = 0; other < _params.num_cpus; ++other) {
        if (other == cpu)
            continue;
        if (_l1d[other]->probe(line)) {
            bool was_dirty = _l1d[other]->invalidate(line);
            ++_ctr.coherence_invalidations;
            if (was_dirty) {
                // The remote dirty copy drains into the LLC.
                if (_l2) {
                    _l2->markDirty(line);
                } else if (_dram_cache &&
                           !_dram_cache->markSectorDirty(line)) {
                    _ctr.offdie_writeback_bytes +=
                        _params.l1d.line_bytes;
                }
            }
        }
    }
}

void
MemoryHierarchy::handleL1Victim(unsigned cpu, const CacheAccessResult &res,
                                Cycles when)
{
    (void)cpu;
    if (!res.writeback)
        return;
    // Dirty L1 victim drains into the LLC; inclusion normally
    // guarantees the line is there. If it is not (evicted between the
    // fill and this eviction), the data goes straight off die.
    if (_l2) {
        if (!_l2->markDirty(res.victim_addr)) {
            _bus.transfer(_params.l1d.line_bytes, when,
                          /*speculative=*/true);
            _main_memory.write(res.victim_addr, when);
            _ctr.offdie_writeback_bytes += _params.l1d.line_bytes;
        }
    } else if (_dram_cache) {
        if (!_dram_cache->markSectorDirty(res.victim_addr)) {
            _bus.transfer(_params.l1d.line_bytes, when,
                          /*speculative=*/true);
            _main_memory.write(res.victim_addr, when);
            _ctr.offdie_writeback_bytes += _params.l1d.line_bytes;
        }
    }
}

void
MemoryHierarchy::backInvalidateL1s(Addr line_addr)
{
    for (unsigned c = 0; c < _params.num_cpus; ++c) {
        if (_l1d[c]->probe(line_addr)) {
            bool dirty = _l1d[c]->invalidate(line_addr);
            if (dirty) {
                // Dirty data from the L1 accompanies the LLC victim
                // off die.
                _ctr.offdie_writeback_bytes += _params.l1d.line_bytes;
            }
        }
        if (_l1i[c]->probe(line_addr))
            _l1i[c]->invalidate(line_addr);
    }
}

Cycles
MemoryHierarchy::missToMemory(Addr line, std::uint64_t bytes,
                              Cycles when, bool speculative)
{
    Cycles mem_ready = _main_memory.read(line, when, speculative);
    Cycles t_data = _bus.transfer(bytes, mem_ready, speculative);
    _ctr.offdie_fill_bytes += bytes;
    return t_data;
}

Cycles
MemoryHierarchy::llcAccess(unsigned cpu, Addr line, bool is_store,
                           Cycles when, bool speculative)
{
    (void)cpu;
    (void)is_store;

    if (_l2) {
        // SRAM LLC. Fills are reads: dirtiness arrives later via L1
        // victim drains.
        Cycles t_l2 = when + _l2->params().latency;
        CacheAccessResult res = _l2->access(line, /*is_store=*/false);
        if (res.evicted) {
            backInvalidateL1s(res.victim_addr);
            if (res.writeback) {
                _bus.transfer(_l2->params().line_bytes, t_l2,
                              /*speculative=*/true);
                _main_memory.write(res.victim_addr, t_l2);
                _ctr.offdie_writeback_bytes += _l2->params().line_bytes;
            }
        }
        if (res.hit)
            return t_l2;
        return missToMemory(line, _l2->params().line_bytes, t_l2,
                            speculative);
    }

    // Stacked DRAM cache: on-die tag lookup first, then the data
    // array access crosses the die-to-die interface.
    const DramCacheParams &dp = _params.dram_cache;
    Cycles t_tag = when + dp.tag_latency;
    DramCacheResult res = _dram_cache->access(line, /*is_store=*/false);

    if (res.evicted) {
        // Back-invalidate every sector of the victim page and drain
        // its dirty sectors off die.
        for (unsigned s = 0; s * dp.sector_bytes < dp.page_bytes; ++s)
            backInvalidateL1s(res.victim_page + s * dp.sector_bytes);
        if (res.victim_dirty_sectors > 0) {
            std::uint64_t bytes =
                std::uint64_t(res.victim_dirty_sectors) *
                dp.sector_bytes;
            _bus.transfer(bytes, t_tag, /*speculative=*/true);
            _main_memory.write(res.victim_page, t_tag);
            _ctr.offdie_writeback_bytes += bytes;
        }
    }

    if (res.sector_hit) {
        Cycles t_data = _dram_banks->access(line, t_tag + dp.d2d_latency,
                                            speculative);
        return t_data + dp.d2d_latency;
    }

    // Sector fill from main memory; the arriving sector is written
    // into the stacked DRAM (bank occupancy, off the critical path).
    Cycles t_data =
        missToMemory(line, dp.sector_bytes, t_tag, speculative);
    _dram_banks->access(line, t_data + dp.d2d_latency,
                        /*speculative=*/true);
    return t_data;
}

void
MemoryHierarchy::appendCounters(obs::CounterSet &out,
                                const std::string &prefix,
                                Cycles total_cycles) const
{
    double kilo_refs = double(_ctr.accesses) / 1000.0;
    auto addCache = [&](const std::string &level,
                        const CacheCounters &ctr) {
        out.set(prefix + level + ".hits", double(ctr.hits));
        out.set(prefix + level + ".misses", double(ctr.misses));
        out.set(prefix + level + ".writebacks",
                double(ctr.writebacks));
        out.set(prefix + level + ".miss_rate", ctr.missRate());
        out.set(prefix + level + ".mpkr",
                kilo_refs > 0.0 ? double(ctr.misses) / kilo_refs
                                : 0.0);
    };

    out.set(prefix + "accesses", double(_ctr.accesses));
    out.set(prefix + "loads", double(_ctr.loads));
    out.set(prefix + "stores", double(_ctr.stores));
    out.set(prefix + "ifetches", double(_ctr.ifetches));
    out.set(prefix + "prefetches", double(_ctr.prefetches));
    out.set(prefix + "demand_l1d_misses",
            double(_ctr.demand_l1d_misses));
    out.set(prefix + "coherence_invals",
            double(_ctr.coherence_invalidations));

    // Fold the per-core L1s into one logical level each, matching
    // how the paper reports them.
    CacheCounters l1d_all, l1i_all;
    auto fold = [](CacheCounters &acc, const CacheCounters &c) {
        acc.hits += c.hits;
        acc.misses += c.misses;
        acc.evictions += c.evictions;
        acc.writebacks += c.writebacks;
        acc.invalidations += c.invalidations;
        acc.tag_probes += c.tag_probes;
    };
    for (unsigned c = 0; c < _params.num_cpus; ++c) {
        fold(l1d_all, _l1d[c]->counters());
        fold(l1i_all, _l1i[c]->counters());
    }
    addCache("l1d", l1d_all);
    addCache("l1i", l1i_all);
    if (_l2)
        addCache("l2", _l2->counters());

    // Whole-hierarchy tag-search telemetry: every demand lookup in
    // an SRAM tag array.
    CacheCounters tag_all = l1d_all;
    fold(tag_all, l1i_all);
    if (_l2)
        fold(tag_all, _l2->counters());
    out.set(prefix + "tag_probe.probes", double(tag_all.tag_probes));
    if (_dram_cache) {
        const DramCacheCounters &dc = _dram_cache->counters();
        out.set(prefix + "dram_cache.sector_hits",
                double(dc.sector_hits));
        out.set(prefix + "dram_cache.sector_misses",
                double(dc.sector_misses));
        out.set(prefix + "dram_cache.page_misses",
                double(dc.page_misses));
        out.set(prefix + "dram_cache.evictions",
                double(dc.evictions));
        out.set(prefix + "dram_cache.writeback_sectors",
                double(dc.writeback_sectors));
        out.set(prefix + "dram_cache.miss_rate", dc.missRate());
        const DramBankCounters &bc = _dram_banks->counters();
        out.set(prefix + "dram_banks.page_hits",
                double(bc.page_hits));
        out.set(prefix + "dram_banks.page_opens",
                double(bc.page_misses));
        out.set(prefix + "dram_banks.conflicts",
                double(bc.page_conflicts));
    }

    out.set(prefix + "bus.bytes", double(_bus.totalBytes()));
    out.set(prefix + "bus.speculative_bytes",
            double(_bus.speculativeBytes()));
    out.set(prefix + "bus.transactions",
            double(_bus.transactions()));
    if (total_cycles > 0) {
        out.set(prefix + "bus.achieved_gbps",
                _bus.achievedGBps(total_cycles));
        out.set(prefix + "bus.occupancy",
                _bus.achievedGBps(total_cycles) /
                    _bus.params().bandwidth_gbps);
    }
    out.set(prefix + "memory.reads", double(_main_memory.reads()));
    out.set(prefix + "memory.writes", double(_main_memory.writes()));

    const DramBankCounters &mc = _main_memory.banks().counters();
    out.set(prefix + "memory.page_hits", double(mc.page_hits));
    out.set(prefix + "memory.page_opens", double(mc.page_misses));
    out.set(prefix + "memory.conflicts",
            double(mc.page_conflicts));
}

} // namespace mem
} // namespace stack3d
