#include "engine.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "trace/columns.hh"

namespace stack3d {
namespace mem {

namespace {

constexpr Cycles kPending = std::numeric_limits<Cycles>::max();
constexpr std::uint32_t kNil = ~std::uint32_t(0);

} // anonymous namespace

EngineResult
TraceEngine::run(const trace::TraceBuffer &buf,
                 MemoryHierarchy &hier) const
{
    obs::Span span("mem.replay", "mem");

    EngineResult result;
    result.num_records = buf.size();
    if (buf.empty())
        return result;

    const unsigned num_cpus = hier.params().num_cpus;
    stack3d_assert(_params.window > 0 && _params.issue_width > 0,
                   "engine window/issue width must be positive");
    stack3d_assert(_params.warmup_fraction >= 0.0 &&
                       _params.warmup_fraction < 1.0,
                   "warmup fraction must be in [0, 1)");

    // The trace is stored as columns with its per-cpu order index,
    // both built with the trace, so every replay (one per stack
    // option, and per rep in benchmarks) streams the narrow arrays.
    const trace::TraceColumns &cols = buf.columns();
    const std::uint64_t *addr_col = cols.addr();
    const std::uint32_t *dep_col = cols.dep();
    const std::uint8_t *cpu_col = cols.cpu();
    const trace::MemOp *op_col = cols.op();

    if (cols.numCpus() > num_cpus) {
        stack3d_fatal("trace references cpu ", cols.numCpus() - 1,
                      " but the hierarchy has ", num_cpus);
    }

    const std::size_t n = buf.size();
    const std::uint32_t window = _params.window;
    const bool honor_deps = _params.honor_dependencies;

    // All transient issue state lives in one arena: the completion
    // table and the linked-list issue windows. One backing
    // allocation, zero per-access churn.
    Arena arena;

    // Per-cpu program-order lists, prefix-bucketed into one array
    // (stored with the columns). Cpus past the trace's highest id
    // have zero records and an empty bucket.
    const std::uint32_t *order = cols.order();
    std::vector<std::uint64_t> cpu_count(num_cpus, 0);
    std::vector<std::uint64_t> order_base(num_cpus, 0);
    for (unsigned c = 0; c < num_cpus; ++c) {
        cpu_count[c] = cols.cpuCount(c);
        order_base[c] = cols.orderBase(c);
    }

    Cycles *completion = arena.allocate<Cycles>(n);
    std::fill(completion, completion + n, kPending);

    // Event-driven issue state. The reference engine re-scans its
    // whole window every cycle to re-evaluate each record's
    // readiness; here readiness is decided exactly once. A record
    // whose dependency has not completed is chained onto that
    // dependency's waiter list (an intrusive list over a fixed node
    // pool), and the chain is walked when the dependency retires.
    // Ready records sit in a per-cpu binary min-heap keyed by record
    // index, so popping the minimum is exactly "issue the first
    // ready record in program order" — the same record the reference
    // scan would pick. No per-cycle window walks remain.
    std::uint32_t *waiter_head = arena.allocate<std::uint32_t>(n);
    std::fill(waiter_head, waiter_head + n, kNil);
    std::uint32_t *node_rec =
        arena.allocate<std::uint32_t>(std::size_t(num_cpus) * window);
    std::uint32_t *node_next =
        arena.allocate<std::uint32_t>(std::size_t(num_cpus) * window);
    std::uint32_t *free_stack =
        arena.allocate<std::uint32_t>(std::size_t(num_cpus) * window);

    // The ready set per cpu is split by how records arrive in it.
    // Refills enter in strictly increasing record order, so a plain
    // ring FIFO keeps them sorted for free; only records woken from
    // a waiter chain (arbitrary order) need a real min-heap. Popping
    // the smaller of the two fronts is still exactly pop-min.
    std::uint32_t *ready_fifo =
        arena.allocate<std::uint32_t>(std::size_t(num_cpus) * window);
    std::uint32_t *ready_heap =
        arena.allocate<std::uint32_t>(std::size_t(num_cpus) * window);
    std::vector<std::uint32_t> fifo_head(num_cpus, 0);
    std::vector<std::uint32_t> fifo_tail(num_cpus, 0);
    std::vector<std::uint32_t> fifo_size(num_cpus, 0);
    std::vector<std::uint32_t> heap_size(num_cpus, 0);
    std::vector<std::uint32_t> free_top(num_cpus, window);
    std::vector<std::uint32_t> live(num_cpus, 0);
    std::vector<std::uint64_t> pos(num_cpus, 0);
    std::vector<unsigned> inflight(num_cpus, 0);
    for (unsigned c = 0; c < num_cpus; ++c) {
        // Free stacks hold pool-global node ids; a node is owned by
        // the cpu of the record chained through it.
        std::uint32_t *stack = free_stack + std::size_t(c) * window;
        for (std::uint32_t s = 0; s < window; ++s)
            stack[s] = std::uint32_t(c) * window + (window - 1 - s);
    }

    auto fifoPush = [&](unsigned c, std::uint32_t idx) {
        S3D_DCHECK(fifo_size[c] < window) << "ready fifo overflow";
        ready_fifo[std::size_t(c) * window + fifo_tail[c]] = idx;
        fifo_tail[c] = fifo_tail[c] + 1 == window ? 0 : fifo_tail[c] + 1;
        ++fifo_size[c];
    };
    auto heapPush = [&](unsigned c, std::uint32_t idx) {
        std::uint32_t *h = ready_heap + std::size_t(c) * window;
        std::uint32_t hole = heap_size[c]++;
        S3D_DCHECK(heap_size[c] <= window) << "ready heap overflow";
        while (hole > 0) {
            std::uint32_t parent = (hole - 1) >> 1;
            if (h[parent] <= idx)
                break;
            h[hole] = h[parent];
            hole = parent;
        }
        h[hole] = idx;
    };
    auto heapPop = [&](unsigned c) {
        std::uint32_t *h = ready_heap + std::size_t(c) * window;
        std::uint32_t top = h[0];
        std::uint32_t last = h[--heap_size[c]];
        std::uint32_t size = heap_size[c];
        std::uint32_t hole = 0;
        for (;;) {
            std::uint32_t l = 2 * hole + 1;
            if (l >= size)
                break;
            std::uint32_t r = l + 1;
            std::uint32_t m = (r < size && h[r] < h[l]) ? r : l;
            if (h[m] >= last)
                break;
            h[hole] = h[m];
            hole = m;
        }
        h[hole] = last;
        return top;
    };
    // Pop the smallest ready record index across both structures.
    auto readyPop = [&](unsigned c) {
        if (fifo_size[c] > 0) {
            std::uint32_t front =
                ready_fifo[std::size_t(c) * window + fifo_head[c]];
            if (heap_size[c] == 0 ||
                front < ready_heap[std::size_t(c) * window]) {
                fifo_head[c] =
                    fifo_head[c] + 1 == window ? 0 : fifo_head[c] + 1;
                --fifo_size[c];
                return front;
            }
        }
        return heapPop(c);
    };
    // Move every record waiting on @p rec to its cpu's ready heap
    // and recycle the chain nodes. Called when rec's completion time
    // has been reached, i.e. the waiters' readiness condition
    // (dep completed at-or-before now) just became true.
    auto wakeWaiters = [&](std::uint32_t rec) {
        std::uint32_t g = waiter_head[rec];
        waiter_head[rec] = kNil;
        while (g != kNil) {
            std::uint32_t nxt = node_next[g];
            std::uint32_t widx = node_rec[g];
            unsigned wc = cpu_col[widx];
            S3D_DCHECK(g / window == wc) << "node owner mismatch";
            heapPush(wc, widx);
            free_stack[std::size_t(wc) * window + free_top[wc]++] = g;
            g = nxt;
        }
    };

    // In-flight completions: a calendar ring of one-cycle buckets,
    // each an intrusive list threaded through cal_next[] by record
    // index, plus an occupancy bitmap so empty buckets cost one bit
    // scan instead of a probe each. Push and retire are O(1); a heap
    // here costs O(log inflight) per record and profiles as the
    // single hottest part of the loop. Completions farther out than
    // the ring overflow into a min-heap on completion cycle and move
    // into the ring as the drain horizon reaches them. That is not a
    // corner case: misses queue behind the bus and the DRAM banks and
    // land 1k-8k cycles out. In a perfbench `session` round 15 % of
    // completions land beyond 1024 cycles and 5.6 % beyond this ring;
    // a 1 GB/s bus puts them up to 79k cycles out. Retire drains
    // every entry <= now before any issue, so drain order within a
    // cycle is not observable.
    constexpr std::uint32_t kCalBuckets = 4096; // power of two
    constexpr std::uint32_t kCalMask = kCalBuckets - 1;
    constexpr std::uint32_t kCalWords = kCalBuckets / 64;
    std::uint32_t *cal_bucket = arena.allocate<std::uint32_t>(kCalBuckets);
    std::fill(cal_bucket, cal_bucket + kCalBuckets, kNil);
    std::uint32_t *cal_next = arena.allocate<std::uint32_t>(n);
    std::uint64_t *cal_occ = arena.allocate<std::uint64_t>(kCalWords);
    std::fill(cal_occ, cal_occ + kCalWords, 0);
    using Overflow = std::pair<Cycles, std::uint32_t>; // (cycle, record)
    std::priority_queue<Overflow, std::vector<Overflow>, std::greater<>>
        overflow;
    std::uint64_t overflow_count = 0;
    std::uint32_t pending_completions = 0;
    Cycles drained_to = 0; // buckets drained through drained_to - 1

    auto ringPush = [&](Cycles t, std::uint32_t rec) {
        std::uint32_t b = std::uint32_t(t) & kCalMask;
        cal_next[rec] = cal_bucket[b];
        cal_bucket[b] = rec;
        cal_occ[b >> 6] |= std::uint64_t(1) << (b & 63);
    };
    auto completionPush = [&](Cycles when, std::uint32_t rec) {
        // A zero-latency completion (when == now) has already had its
        // waiters woken at issue; clamping it to drained_to retires
        // it for window accounting on the next cycle, exactly when a
        // time-ordered queue would pop it.
        Cycles t = when < drained_to ? drained_to : when;
        ++pending_completions;
        if (t - drained_to < kCalBuckets) {
            ringPush(t, rec);
        } else {
            overflow.emplace(t, rec);
            ++overflow_count;
        }
    };
    auto drainBucket = [&](std::uint32_t b) {
        std::uint32_t rec = cal_bucket[b];
        cal_bucket[b] = kNil;
        while (rec != kNil) {
            std::uint32_t nxt = cal_next[rec];
            --inflight[cpu_col[rec]];
            --pending_completions;
            wakeWaiters(rec);
            rec = nxt;
        }
    };
    // Move the overflow entries that now fit the ring into it. Called
    // whenever drained_to advances; a chunk advances it by at most one
    // ring lap, so no overflow entry falls behind the horizon.
    auto refillFromOverflow = [&] {
        while (!overflow.empty() &&
               overflow.top().first - drained_to < kCalBuckets) {
            ringPush(overflow.top().first, overflow.top().second);
            overflow.pop();
        }
    };
    // Retire every completion due at or before @p upto, walking the
    // occupancy bitmap word-wise so runs of empty buckets cost one
    // shift+test each.
    auto drainCal = [&](Cycles upto) {
        while (drained_to <= upto) {
            // One chunk never spans more than a full ring lap, so
            // each bucket in it is visited at most once.
            Cycles chunk_end =
                std::min(upto, drained_to + (kCalBuckets - 1));
            Cycles t = drained_to;
            while (t <= chunk_end) {
                std::uint32_t b = std::uint32_t(t) & kCalMask;
                std::uint32_t w = b >> 6;
                std::uint64_t bits = cal_occ[w] >> (b & 63);
                Cycles span = std::min<Cycles>(64 - (b & 63),
                                               chunk_end - t + 1);
                if (span < 64)
                    bits &= (std::uint64_t(1) << span) - 1;
                while (bits != 0) {
                    std::uint32_t bb =
                        b + std::uint32_t(std::countr_zero(bits));
                    cal_occ[w] &= ~(std::uint64_t(1) << (bb & 63));
                    drainBucket(bb);
                    bits &= bits - 1;
                }
                t += span;
            }
            drained_to = chunk_end + 1;
            refillFromOverflow();
        }
    };
    // First pending completion time after the current drain horizon,
    // for the fully-stalled time jump.
    auto nextEventTime = [&] {
        Cycles t = drained_to;
        const Cycles end = drained_to + kCalBuckets;
        while (t < end) {
            std::uint32_t b = std::uint32_t(t) & kCalMask;
            std::uint32_t w = b >> 6;
            std::uint64_t bits = cal_occ[w] >> (b & 63);
            Cycles span = std::min<Cycles>(64 - (b & 63), end - t);
            if (span < 64)
                bits &= (std::uint64_t(1) << span) - 1;
            if (bits != 0)
                return t + Cycles(std::countr_zero(bits));
            t += span;
        }
        return overflow.empty() ? kPending : overflow.top().first;
    };

    Cycles now = 0;
    double latency_sum = 0.0;
    std::uint64_t lat_buckets[4] = {0, 0, 0, 0};

    const std::uint64_t warmup_records =
        std::uint64_t(double(n) * _params.warmup_fraction);
    std::uint64_t issued_total = 0;
    Cycles warmup_cycles = 0;
    std::uint64_t warmup_bus_bytes = 0;
    std::uint64_t measured_records = 0;

    // all-done == every record issued and every completion retired
    // (calendar entries and inflight counts are the same population).
    while (issued_total < n || pending_completions > 0) {
        // Retire completions due at or before the current cycle. A
        // retire frees window space and readies its waiters: this is
        // the first cycle with now >= their dependency's completion,
        // exactly when the reference scan would first issue them.
        drainCal(now);

        bool issued_any = false;
        for (unsigned c = 0; c < num_cpus; ++c) {
            // Refill the window in program order. Readiness is
            // decided here once: a record whose dependency has not
            // completed by now chains onto the dependency's waiter
            // list; everything else goes straight to the ready heap.
            std::uint32_t *stack = free_stack + std::size_t(c) * window;
            const std::uint64_t base = order_base[c];
            while (pos[c] < cpu_count[c] &&
                   live[c] + inflight[c] < window) {
                std::uint32_t idx = order[base + pos[c]++];
                ++live[c];
                std::uint32_t d =
                    honor_deps ? dep_col[idx] : trace::kNoDepIndex;
                if (d != trace::kNoDepIndex && completion[d] > now) {
                    // Covers both an unissued dependency (kPending)
                    // and one completing in the future; either way
                    // the chain is walked at the dependency's retire.
                    std::uint32_t g = stack[--free_top[c]];
                    node_rec[g] = idx;
                    node_next[g] = waiter_head[d];
                    waiter_head[d] = g;
                } else {
                    fifoPush(c, idx);
                }
            }
            S3D_DCHECK(pos[c] <= cpu_count[c])
                << "cpu=" << c << " pos=" << pos[c];
            S3D_DCHECK(live[c] + inflight[c] <= window)
                << "cpu=" << c << " window=" << live[c] << "+"
                << inflight[c];

            // Issue up to issue_width ready records, oldest first.
            unsigned issued = 0;
            while (issued < _params.issue_width &&
                   fifo_size[c] + heap_size[c] > 0) {
                const std::uint32_t idx = readyPop(c);
                // Each record issues exactly once, and a dependency
                // always points at an older record.
                S3D_DCHECK(completion[idx] == kPending)
                    << "record " << idx << " issued twice";
                S3D_DCHECK(dep_col[idx] == trace::kNoDepIndex ||
                           dep_col[idx] < idx)
                    << "record " << idx << " depends on "
                    << dep_col[idx];
                Cycles done =
                    hier.access(c, addr_col[idx], op_col[idx], now);
                stack3d_assert(done >= now,
                               "hierarchy returned completion in past");
                completion[idx] = done;
                ++issued_total;
                if (issued_total == warmup_records) {
                    warmup_cycles = now;
                    warmup_bus_bytes = hier.bus().totalBytes();
                }
                if (issued_total > warmup_records) {
                    ++measured_records;
                    Cycles lat = done - now;
                    latency_sum += double(lat);
                    ++lat_buckets[lat <= 8 ? 0 : lat <= 32 ? 1
                                  : lat <= 128 ? 2 : 3];
                }
                completionPush(done, idx);
                ++inflight[c];
                --live[c];
                ++issued;
                issued_any = true;
                // Zero-latency corner: a completion at `now` is
                // already at-or-before the current cycle, and the
                // reference scan issues its dependents this same
                // cycle, so wake them immediately (the heap entry
                // still retires normally for window accounting).
                if (done == now)
                    wakeWaiters(idx);
            }
        }

        if (issued_total >= n && pending_completions == 0)
            break;

        // Advance time: by one cycle while issuing, or jump to the
        // next completion when fully stalled.
        if (issued_any || pending_completions == 0) {
            ++now;
        } else {
            now = std::max(now + 1, nextEventTime());
        }
    }

    result.total_cycles = now;
    if (measured_records == 0) {
        // Degenerate (all warm-up): fall back to whole-trace stats.
        warmup_cycles = 0;
        warmup_bus_bytes = 0;
        measured_records = n;
    }
    Cycles measured_cycles = now - warmup_cycles;
    result.cpma = double(measured_cycles) / double(measured_records);
    result.avg_latency = latency_sum / double(measured_records);
    {
        // Bandwidth and bus power over the measured region only.
        double seconds = double(measured_cycles) /
                         (hier.bus().params().core_freq_ghz * 1e9);
        std::uint64_t bytes =
            hier.bus().totalBytes() - warmup_bus_bytes;
        result.offdie_gbps =
            seconds > 0.0 ? double(bytes) / 1e9 / seconds : 0.0;
        result.bus_power_w = result.offdie_gbps * 8.0 *
                             hier.bus().params().mw_per_gbit * 1e-3;
    }
    result.hier = hier.counters();
    hier.appendCounters(result.counters, "", now);
    result.counters.set("engine.total_cycles", double(now));
    result.counters.set("engine.measured_records",
                        double(measured_records));
    result.counters.set("engine.warmup_cycles",
                        double(warmup_cycles));
    result.counters.set("replay.batches",
                        double(cols.decodeBatches()));
    result.counters.set("replay.calendar_overflows",
                        double(overflow_count));
    for (unsigned b = 0; b < 4; ++b)
        result.latency_frac[b] =
            double(lat_buckets[b]) / double(measured_records);

    // Aggregate L1D and LLC miss rates for reporting.
    std::uint64_t l1_hits = 0, l1_misses = 0;
    for (unsigned c = 0; c < num_cpus; ++c) {
        l1_hits += hier.l1d(c).counters().hits;
        l1_misses += hier.l1d(c).counters().misses;
    }
    if (l1_hits + l1_misses > 0) {
        result.l1d_miss_rate =
            double(l1_misses) / double(l1_hits + l1_misses);
    }
    if (hier.l2()) {
        result.llc_miss_rate = hier.l2()->counters().missRate();
    } else if (hier.dramCache()) {
        result.llc_miss_rate = hier.dramCache()->counters().missRate();
    }
    return result;
}

} // namespace mem
} // namespace stack3d
