/**
 * @file
 * In-memory spans for the traced run. The benchmark opens a span
 * around each call it makes into a layer; spans nest per thread, a
 * root span per request carries the request id to its children, and
 * everything stays in memory until the run ends.
 *
 * A span's name is "<layer>.<what>" (e.g. "mem.replay"); its self
 * time is its duration minus the part of it that child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    const char *name = "";         ///< static "<layer>.<what>"
    std::int64_t start_ns = 0;     ///< since the log's origin
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;      ///< index in the log, -1 = root
    std::uint32_t request = 0;
    std::uint32_t tid = 0;
};

class SpanLog
{
  public:
    SpanLog();

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Open a span on this thread under its innermost open span. */
    std::size_t open(const char *name, std::uint32_t request);
    void close(std::size_t index);

    /** Every span recorded so far (call after the threads joined). */
    const std::vector<SpanRecord> &records() const { return _spans; }

    /** Chrome trace-event JSON ("X" events), loadable by Perfetto. */
    void writeChromeJson(std::ostream &os) const;

  private:
    using Clock = std::chrono::steady_clock;

    std::int64_t now() const;

    Clock::time_point _origin;
    std::mutex _mutex;   ///< guards _spans and _tids
    std::vector<SpanRecord> _spans;
    std::map<std::thread::id, std::uint32_t> _tids;
};

/** RAII span; @p request is used only by a root span. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, std::uint32_t request = 0)
        : _log(log), _index(log.open(name, request))
    {
    }
    ~Span() { _log.close(_index); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &_log;
    std::size_t _index;
};

/** Per span name: calls and self time, folded over a whole log. */
struct FoldedRow
{
    std::string name;
    std::uint64_t calls = 0;
    double self_s = 0.0;
};

struct Folded
{
    /** Rows of every layer span (roots excluded), by name. */
    std::vector<FoldedRow> rows;
    /** Self time of the root spans: time no layer span covers. */
    double unattributed_s = 0.0;
};

/** Fold @p spans into per-name self times. */
Folded fold(const std::vector<SpanRecord> &spans);

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Wait spans (admission and coalescing) measure time a request
 * spent blocked on another one, not work of a layer.
 */
bool isWait(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
