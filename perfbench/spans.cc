#include "spans.hh"

#include <algorithm>

#include "common/json.hh"

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last. */
thread_local std::vector<std::size_t> t_open;

} // anonymous namespace

SpanLog::SpanLog() : _origin(Clock::now()) {}

std::int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - _origin)
        .count();
}

std::size_t
SpanLog::open(const char *name, std::uint32_t request)
{
    SpanRecord rec;
    rec.name = name;
    rec.request = request;
    std::lock_guard<std::mutex> lock(_mutex);
    if (!t_open.empty()) {
        rec.parent = std::int64_t(t_open.back());
        rec.request = _spans[t_open.back()].request;
    }
    auto tid = _tids.emplace(std::this_thread::get_id(),
                             std::uint32_t(_tids.size() + 1));
    rec.tid = tid.first->second;
    rec.start_ns = now();
    _spans.push_back(rec);
    t_open.push_back(_spans.size() - 1);
    return _spans.size() - 1;
}

void
SpanLog::close(std::size_t index)
{
    std::int64_t end = now();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[index].end_ns = end;
    t_open.pop_back();
}

void
SpanLog::writeChromeJson(std::ostream &os) const
{
    stack3d::JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const SpanRecord &s = _spans[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(layerOf(s.name));
        w.key("ph").value("X");
        w.key("pid").value(std::uint64_t(1));
        w.key("tid").value(std::uint64_t(s.tid));
        w.key("ts").valueExact(double(s.start_ns) / 1000.0);
        w.key("dur").valueExact(double(s.end_ns - s.start_ns) / 1000.0);
        w.key("args").beginObject();
        w.key("span").value(std::uint64_t(i));
        w.key("parent").value(std::int64_t(s.parent));
        w.key("request").value(std::uint64_t(s.request));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

bool
isWait(const std::string &name)
{
    return name.size() > 5 &&
           name.compare(name.size() - 5, 5, "_wait") == 0;
}

Folded
fold(const std::vector<SpanRecord> &spans)
{
    // Child intervals per parent, then self = duration minus the
    // union of the children clipped to the parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const SpanRecord &s : spans)
        if (s.parent >= 0)
            children[std::size_t(s.parent)].push_back(
                {s.start_ns, s.end_ns});

    Folded out;
    std::map<std::string, FoldedRow> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0, cursor = s.start_ns;
        for (const auto &k : kids) {
            std::int64_t lo = std::max(k.first, cursor);
            std::int64_t hi = std::min(k.second, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        double self_s = double(s.end_ns - s.start_ns - covered) * 1e-9;
        if (s.parent < 0) {
            out.unattributed_s += self_s;
            continue;
        }
        FoldedRow &row = rows[s.name];
        row.name = s.name;
        ++row.calls;
        row.self_s += self_s;
    }
    for (auto &entry : rows)
        out.rows.push_back(entry.second);
    return out;
}

} // namespace perfbench
