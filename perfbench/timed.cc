#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "exec/pool.hh"
#include "runs.hh"

namespace perfbench {

using stack3d::serve::ServiceOptions;
using stack3d::serve::StudyService;

namespace {

using Clock = std::chrono::steady_clock;

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/**
 * Samples the bytes the process has allocated and not freed, every
 * 10 ms, and keeps the peak. Unlike the resident set this leaves out
 * memory the allocator keeps after a free, which depends on which
 * worker thread ran which request.
 */
class HeapSampler
{
  public:
    HeapSampler() : _pool(1)
    {
        _done = _pool.submit([this] {
            while (!_stop.load(std::memory_order_relaxed)) {
                sample();
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        });
    }

    ~HeapSampler()
    {
        _stop.store(true, std::memory_order_relaxed);
        if (_done.valid())
            _done.wait();
    }

    HeapSampler(const HeapSampler &) = delete;
    HeapSampler &operator=(const HeapSampler &) = delete;

    /** Stop sampling; the peak live heap seen, MiB. */
    double
    stopMiB()
    {
        _stop.store(true, std::memory_order_relaxed);
        _done.get();
        sample();
        return double(_peak) / double(1 << 20);
    }

  private:
    void
    sample()
    {
        struct mallinfo2 mi = mallinfo2();
        _peak = std::max(_peak, mi.uordblks + mi.hblkhd);
    }

    std::atomic<bool> _stop{false};
    std::size_t _peak = 0;   ///< written by the sampling task only
                             ///< until stopMiB() has joined it
    stack3d::exec::ThreadPool _pool;
    std::future<void> _done;
};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

TimedRound
runRound(const Script &script, StudyService &service)
{
    TimedRound round;
    const std::size_t n = script.lines.size();
    round.responses.resize(n);
    std::atomic<std::size_t> next{0};
    auto client = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            Response &out = round.responses[i];
            Clock::time_point t0 = Clock::now();
            try {
                stack3d::serve::ServeResult r =
                    service.handle(script.lines[i]);
                out.latency_s = since(t0);
                out.status = r.status;
                out.cached = r.cached;
                out.coalesced = r.coalesced;
                out.report = std::move(r.report_json);
                out.error = std::move(r.error);
            } catch (const std::exception &e) {
                out.latency_s = since(t0);
                out.error = e.what();
            }
        }
    };
    stack3d::exec::ThreadPool clients(script.shape.clients);
    HeapSampler heap;
    double cpu0 = cpuSeconds();
    Clock::time_point t0 = Clock::now();
    std::vector<std::future<void>> done;
    for (unsigned c = 0; c < script.shape.clients; ++c)
        done.push_back(clients.submit(client));
    for (std::future<void> &f : done)
        f.get();
    round.wall_s = since(t0);
    round.cpu_s = cpuSeconds() - cpu0;
    round.peak_heap_mib = heap.stopMiB();
    round.counters = service.counters();
    return round;
}

} // anonymous namespace

ServiceOptions
serviceOptions(const Shape &shape)
{
    ServiceOptions opts;
    opts.workers = shape.workers;
    opts.cache_entries = shape.cache_entries;
    return opts;
}

std::vector<TimedRound>
runTimed(const Script &script, double seconds,
         const std::function<std::unique_ptr<StudyService>()> &set_up)
{
    std::vector<TimedRound> rounds;
    double elapsed = 0.0;
    while (rounds.empty() || elapsed < seconds) {
        std::unique_ptr<StudyService> service = set_up();
        rounds.push_back(runRound(script, *service));
        elapsed += rounds.back().wall_s;
    }
    return rounds;
}

} // namespace perfbench
