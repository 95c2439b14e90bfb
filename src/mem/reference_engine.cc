#include "reference_engine.hh"

#include <limits>
#include <queue>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace mem {

namespace {

constexpr Cycles kPending = std::numeric_limits<Cycles>::max();

struct Completion
{
    Cycles when;
    unsigned cpu;

    bool
    operator>(const Completion &other) const
    {
        return when > other.when;
    }
};

} // anonymous namespace

EngineResult
runReferenceReplay(const EngineParams &params,
                   const trace::TraceBuffer &buf, MemoryHierarchy &hier)
{
    obs::Span span("mem.replay.ref", "mem");

    EngineResult result;
    result.num_records = buf.size();
    if (buf.empty())
        return result;

    unsigned num_cpus = hier.params().num_cpus;
    stack3d_assert(params.window > 0 && params.issue_width > 0,
                   "engine window/issue width must be positive");

    // Partition the trace into per-cpu program-order index lists.
    std::vector<std::vector<std::uint32_t>> order(num_cpus);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        unsigned cpu = buf[i].cpu;
        if (cpu >= num_cpus) {
            stack3d_fatal("trace references cpu ", cpu,
                          " but the hierarchy has ", num_cpus);
        }
        order[cpu].push_back(std::uint32_t(i));
    }

    std::vector<Cycles> completion(buf.size(), kPending);
    std::vector<std::size_t> pos(num_cpus, 0);
    std::vector<unsigned> inflight(num_cpus, 0);
    // The issue window: records fetched but not yet issued, kept in
    // program order. A dependency-stalled record does NOT block
    // younger independent records (the paper's engine issues any
    // access whose dependency has completed).
    std::vector<std::vector<std::uint32_t>> pending(num_cpus);
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>> heap;

    Cycles now = 0;
    double latency_sum = 0.0;
    std::uint64_t lat_buckets[4] = {0, 0, 0, 0};

    // Warm-up bookkeeping: records with index below the cutoff are
    // simulated but excluded from the reported statistics.
    stack3d_assert(params.warmup_fraction >= 0.0 &&
                       params.warmup_fraction < 1.0,
                   "warmup fraction must be in [0, 1)");
    const std::uint64_t warmup_records =
        std::uint64_t(double(buf.size()) * params.warmup_fraction);
    std::uint64_t issued_total = 0;
    Cycles warmup_cycles = 0;
    std::uint64_t warmup_bus_bytes = 0;
    std::uint64_t measured_records = 0;

    auto all_done = [&]() {
        for (unsigned c = 0; c < num_cpus; ++c) {
            if (pos[c] < order[c].size() || !pending[c].empty() ||
                inflight[c] > 0)
                return false;
        }
        return true;
    };

    while (!all_done()) {
        // Retire completions due at or before the current cycle.
        while (!heap.empty() && heap.top().when <= now) {
            --inflight[heap.top().cpu];
            heap.pop();
        }

        bool issued_any = false;
        for (unsigned c = 0; c < num_cpus; ++c) {
            // Refill the window in program order. The cursor is
            // monotone: it only ever advances, and never past the
            // end of the cpu's program-order list.
            while (pos[c] < order[c].size() &&
                   pending[c].size() + inflight[c] < params.window) {
                pending[c].push_back(order[c][pos[c]++]);
            }
            S3D_DCHECK(pos[c] <= order[c].size())
                << "cpu=" << c << " pos=" << pos[c];
            S3D_DCHECK(pending[c].size() + inflight[c] <=
                       params.window)
                << "cpu=" << c << " window=" << pending[c].size()
                << "+" << inflight[c];

            // Issue up to issue_width ready records, oldest first,
            // skipping dependency-stalled ones.
            unsigned issued = 0;
            auto &window = pending[c];
            std::size_t kept = 0;
            for (std::size_t k = 0; k < window.size(); ++k) {
                std::uint32_t idx = window[k];
                bool ready = issued < params.issue_width;
                if (ready && params.honor_dependencies &&
                    buf[idx].hasDep()) {
                    Cycles dep_done = completion[buf[idx].dep];
                    ready = dep_done != kPending && dep_done <= now;
                }
                if (!ready) {
                    window[kept++] = idx;
                    continue;
                }
                const trace::TraceRecord &rec = buf[idx];
                // Each record issues exactly once, and a dependency
                // always points at an older record.
                S3D_DCHECK(completion[idx] == kPending)
                    << "record " << idx << " issued twice";
                S3D_DCHECK(!rec.hasDep() || rec.dep < idx)
                    << "record " << idx << " depends on " << rec.dep;
                Cycles done = hier.access(c, rec.addr, rec.op, now);
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
                heap.push({done, c});
                ++inflight[c];
                ++issued;
                issued_any = true;
            }
            S3D_DCHECK(kept <= window.size());
            window.resize(kept);
        }

        if (all_done())
            break;

        // Advance time: by one cycle while issuing, or jump to the
        // next completion when fully stalled.
        if (issued_any || heap.empty()) {
            ++now;
        } else {
            now = std::max(now + 1, heap.top().when);
        }
    }

    result.total_cycles = now;
    if (measured_records == 0) {
        // Degenerate (all warm-up): fall back to whole-trace stats.
        warmup_cycles = 0;
        warmup_bus_bytes = 0;
        measured_records = buf.size();
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
