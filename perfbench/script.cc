#include "script.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/digest.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "obs/provenance.hh"
#include "serve/request.hh"
#include "workloads/registry.hh"

namespace perfbench {

using stack3d::JsonWriter;
using stack3d::Random;

namespace {

/** One request before it is rendered to a wire line. */
struct Draft
{
    std::string study;
    std::uint64_t seed = 1;
    double depth = 1.0;
    std::vector<std::string> benchmarks;   ///< memory
    unsigned window = 0;                   ///< memory; 0 = default
    unsigned die_nx = 0, die_ny = 0;       ///< thermal, logic
    std::vector<double> conductivities;    ///< sensitivity
    double cost = 0.0;                     ///< relative host cost
};

std::string
render(const Draft &d, std::size_t index, unsigned study_threads)
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("schema_version").value(stack3d::obs::kSchemaVersion);
    w.key("study").value(d.study);
    w.key("id").value("r" + std::to_string(index));
    w.key("options").beginObject();
    w.key("threads").value(study_threads);
    w.key("seed").value(d.seed);
    w.key("depth").valueExact(d.depth);
    w.endObject();
    w.key("spec").beginObject();
    if (d.study == "memory") {
        w.key("benchmarks").beginArray();
        for (const std::string &b : d.benchmarks)
            w.value(b);
        w.endArray();
        if (d.window != 0) {
            w.key("engine").beginObject();
            w.key("window").value(d.window);
            w.endObject();
        }
    } else {
        if (d.study == "sensitivity") {
            w.key("conductivities").beginArray();
            for (double k : d.conductivities)
                w.valueExact(k);
            w.endArray();
        }
        w.key("die_nx").value(d.die_nx);
        w.key("die_ny").value(d.die_ny);
    }
    w.endObject();
    w.endObject();
    return os.str();
}

template <typename T>
void
shuffle(std::vector<T> &v, Random &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
}

/** A request seed no other draft of this script uses. */
std::uint64_t
freshSeed(Random &rng, std::set<std::uint64_t> &used)
{
    for (;;) {
        std::uint64_t s = 1 + (rng.next() >> 33);
        if (used.insert(s).second)
            return s;
    }
}

// Host milliseconds of a one-kernel memory request at depth 0.05
// (Intel Xeon, 4 vCPUs): the kernels split into six cheap and six
// costly ones.
const std::map<std::string, double> kKernelMs = {
    {"svd", 144},   {"sAVDF", 199}, {"sAVIF", 205}, {"dSym", 255},
    {"sSym", 256},  {"gauss", 289}, {"conj", 456},  {"pcg", 565},
    {"sMVM", 657},  {"svm", 710},   {"sTrans", 741}, {"sUS", 820},
};

double
memoryCost(const std::vector<std::string> &benchmarks)
{
    double ms = 0.0;
    for (const std::string &b : benchmarks)
        ms += kKernelMs.at(b);
    return ms;
}

Draft
memoryDraft(std::vector<std::string> benchmarks, std::uint64_t seed,
            double depth)
{
    Draft d;
    d.study = "memory";
    d.benchmarks = std::move(benchmarks);
    d.seed = seed;
    d.depth = depth;
    d.cost = memoryCost(d.benchmarks);
    return d;
}

Draft
thermalDraft(const char *study, unsigned nx, unsigned ny,
             std::vector<double> ks = {})
{
    Draft d;
    d.study = study;
    d.die_nx = nx;
    d.die_ny = ny;
    d.conductivities = std::move(ks);
    // Solves per request: four stack options, or two per swept point.
    double solves = d.study == "sensitivity"
                        ? 2.0 * double(d.conductivities.size())
                        : 4.0;
    d.cost = double(nx * ny) * solves;
    return d;
}

/** @p n distinct conductivities from the Figure 3 range, descending. */
std::vector<double>
conductivityList(Random &rng, std::size_t n)
{
    std::vector<double> pool = {3, 6, 12, 20, 40, 60, 80, 120};
    shuffle(pool, rng);
    pool.resize(n);
    std::sort(pool.rbegin(), pool.rend());
    return pool;
}

/** Big-first order keeps a round's ramp-down short and alike. */
void
sortByCostDescending(std::vector<Draft> &drafts)
{
    std::stable_sort(drafts.begin(), drafts.end(),
                     [](const Draft &a, const Draft &b) {
                         return a.cost > b.cost;
                     });
}

// Fig 5 memory studies: every RMS kernel twice per round, the six
// costly kernels alone and the six cheap ones in seed-chosen pairs,
// so requests cost within a factor of two of each other. Each
// request has a fresh trace seed, so every request is cold.
std::vector<Draft>
memoryScript(Random &rng, Size size)
{
    std::set<std::uint64_t> seeds;
    std::vector<std::string> cheap, costly;
    for (const std::string &k : stack3d::workloads::rmsKernelNames())
        (kKernelMs.at(k) < 300 ? cheap : costly).push_back(k);
    std::vector<Draft> drafts;
    auto add = [&](std::vector<std::string> kernels, double depth) {
        drafts.push_back(
            memoryDraft(std::move(kernels), freshSeed(rng, seeds), depth));
    };
    if (size == Size::Smoke) {
        add({costly[0]}, 0.001);
        add({cheap[0], cheap[1]}, 0.001);
        return drafts;
    }
    for (int copy = 0; copy < 2; ++copy) {
        for (const std::string &k : costly)
            add({k}, 0.05);
        shuffle(cheap, rng);
        for (std::size_t j = 0; j + 1 < cheap.size(); j += 2)
            add({cheap[j], cheap[j + 1]}, 0.05);
    }
    sortByCostDescending(drafts);
    return drafts;
}

// Fig 8 stack-thermal dies 24x19..30x27, two heights per width, and
// Fig 3 sensitivity sweeps of three conductivities over dies
// 18x16..20x18: every request costs about as much as the others.
std::vector<Draft>
thermalScript(Random &rng, Size size)
{
    std::vector<Draft> drafts;
    if (size == Size::Smoke) {
        drafts.push_back(thermalDraft("stack-thermal", 8, 6));
        drafts.push_back(thermalDraft("stack-thermal", 9, 7));
        drafts.push_back(
            thermalDraft("sensitivity", 8, 6, conductivityList(rng, 2)));
        return drafts;
    }
    for (unsigned nx = 24; nx <= 30; ++nx) {
        unsigned ny = 19 + (nx - 24) * 5 / 6;
        drafts.push_back(thermalDraft("stack-thermal", nx,
                                      ny + unsigned(rng.uniformInt(2))));
        drafts.push_back(thermalDraft("stack-thermal", nx,
                                      ny + 2 + unsigned(rng.uniformInt(2))));
    }
    for (unsigned i = 0; i < 6; ++i) {
        unsigned nx = 18 + i / 2;
        unsigned ny = 16 + unsigned(rng.uniformInt(3));
        drafts.push_back(thermalDraft("sensitivity", nx, ny,
                                      conductivityList(rng, 3)));
    }
    shuffle(drafts, rng);
    sortByCostDescending(drafts);
    return drafts;
}

// Table 4/5 logic studies: fresh suite seed and die size each.
std::vector<Draft>
logicScript(Random &rng, Size size)
{
    std::set<std::uint64_t> seeds;
    const bool smoke = size == Size::Smoke;
    std::vector<Draft> drafts;
    for (unsigned i = 0; i < (smoke ? 2u : 12u); ++i) {
        Draft d;
        d.study = "logic";
        d.seed = freshSeed(rng, seeds);
        d.depth = smoke ? 0.005 : 0.05;
        d.die_nx = smoke ? 6 + i : 14 + unsigned(rng.uniformInt(5));
        d.die_ny = smoke ? 6 : 12 + unsigned(rng.uniformInt(5));
        drafts.push_back(d);
    }
    return drafts;
}

// A research session: distinct studies of three kinds in a fixed
// pattern, each repeated four times within the next three distinct
// requests (the first repeat back to back, so it can coalesce).
// Half the memory studies are variants of an earlier one: same
// kernels, seed and depth, with another engine window or one extra
// kernel, so their traces are identical.
std::vector<Draft>
sessionScript(Random &rng, Size size, std::size_t &window_out)
{
    const bool smoke = size == Size::Smoke;
    const double depth = smoke ? 0.001 : 0.05;
    // M = memory, V = a variant of the first memory study not yet
    // varied, T = stack-thermal, S = sensitivity.
    const std::string pattern =
        smoke ? "MTVS" : "MTMSVTMVSTMVTSMVVSTT";
    // A fixed mix of kernels, variants and die sizes, so the round's
    // cost does not hinge on the seed; the seed picks trace seeds,
    // conductivities, die heights and the order of repeats.
    const std::vector<std::string> bases = {"conj", "pcg", "sMVM", "svm",
                                            "sTrans"};
    const std::vector<std::string> extras = {"dSym", "svd"};
    const std::vector<unsigned> windows = {64, 256, 64};
    std::vector<unsigned> st_widths = {16, 18, 19, 21, 22, 24};
    shuffle(st_widths, rng);

    std::set<std::uint64_t> seeds;
    std::vector<Draft> distinct;
    std::size_t next_base = 0, next_variant = 0;
    std::size_t n_st = 0, n_sens = 0;
    std::vector<std::size_t> memory_bases;
    for (char kind : pattern) {
        switch (kind) {
          case 'M': {
            memory_bases.push_back(distinct.size());
            distinct.push_back(memoryDraft({bases[next_base++]},
                                           freshSeed(rng, seeds), depth));
            break;
          }
          case 'V': {
            Draft v = distinct[memory_bases[next_variant]];
            if (next_variant % 2 == 0) {
                v.window = windows[next_variant / 2];
            } else {
                // One more kernel: the base kernel's trace repeats.
                v.benchmarks.push_back(extras[next_variant / 2]);
                v.cost = memoryCost(v.benchmarks);
            }
            ++next_variant;
            distinct.push_back(v);
            break;
          }
          case 'T': {
            unsigned nx = smoke ? 8 + unsigned(n_st) : st_widths[n_st];
            unsigned ny = smoke ? 6 : nx - 2 + unsigned(rng.uniformInt(2));
            ++n_st;
            distinct.push_back(thermalDraft("stack-thermal", nx, ny));
            break;
          }
          case 'S': {
            unsigned nx = smoke ? 8 : 16 + unsigned(n_sens);
            unsigned ny = smoke ? 6 : 14 + unsigned(rng.uniformInt(2));
            ++n_sens;
            distinct.push_back(thermalDraft(
                "sensitivity", nx, ny, conductivityList(rng, smoke ? 2 : 3)));
            break;
          }
        }
    }

    const std::size_t window = smoke ? 1 : 3;
    window_out = window;
    std::vector<Draft> seq;
    for (std::size_t k = 0; k < distinct.size(); ++k) {
        seq.push_back(distinct[k]);
        seq.push_back(distinct[k]);   // back to back: may coalesce
        std::vector<std::size_t> older;
        for (std::size_t j = 1; j <= window && j <= k; ++j)
            older.push_back(k - j);
        shuffle(older, rng);
        for (std::size_t j : older)
            seq.push_back(distinct[j]);
    }
    // Repeats still owed by the last `window` distinct requests.
    std::vector<std::size_t> owed;
    const std::size_t n = distinct.size();
    for (std::size_t k = n > window ? n - window : 0; k < n; ++k)
        for (std::size_t j = n - k; j <= window; ++j)
            owed.push_back(k);
    shuffle(owed, rng);
    for (std::size_t k : owed)
        seq.push_back(distinct[k]);
    return seq;
}

} // anonymous namespace

bool
makeScript(const std::string &workload, std::uint64_t seed, Size size,
           unsigned study_threads, Script &out, std::string &error)
{
    Random rng(seed ^ stack3d::fnv1a(workload));
    std::vector<Draft> drafts;
    std::size_t intended_distinct = 0;
    out = Script();
    out.workload = workload;
    if (workload == "memory" || workload == "thermal" ||
        workload == "logic") {
        drafts = workload == "memory"    ? memoryScript(rng, size)
                 : workload == "thermal" ? thermalScript(rng, size)
                                         : logicScript(rng, size);
        intended_distinct = drafts.size();
        // One client more than workers: admission queueing happens.
        out.shape = {5, 4, 64};
    } else if (workload == "session") {
        std::size_t window = 0;
        drafts = sessionScript(rng, size, window);
        intended_distinct = size == Size::Smoke ? 4 : 20;
        // Two clients and two workers keep at most four threads busy
        // while the cache holds fewer entries than the round's
        // distinct requests. An entry is last read at most `window`
        // distinct requests after it is written, so it cannot be
        // evicted early while capacity > 2 * window + clients.
        out.shape = {2, 2, 16};
        if (out.shape.cache_entries <= 2 * window + out.shape.clients) {
            error = "session cache too small for its repeat window";
            return false;
        }
    } else {
        error = "unknown workload '" + workload + "'";
        return false;
    }

    std::map<std::uint64_t, std::size_t> first;
    std::set<std::tuple<std::string, std::uint64_t, double, double>>
        generated;
    std::size_t reused = 0;
    for (std::size_t i = 0; i < drafts.size(); ++i) {
        out.lines.push_back(render(drafts[i], i, study_threads));
        stack3d::serve::Request req;
        if (!stack3d::serve::parseRequest(out.lines.back(), req, error)) {
            error = "script request " + std::to_string(i) + ": " + error;
            return false;
        }
        auto ins = first.emplace(req.digest(), i);
        out.twin.push_back(ins.first->second);
        if (!ins.second || req.kind != stack3d::serve::StudyKind::Memory)
            continue;
        for (const std::string &b : req.memory.benchmarks) {
            ++out.traces;
            if (!generated
                     .emplace(b, req.options.seed, req.options.depth,
                              req.options.scale)
                     .second)
                ++reused;
        }
    }
    out.distinct = first.size();
    if (out.distinct != intended_distinct) {
        error = "script has " + std::to_string(out.distinct) +
                " distinct requests, expected " +
                std::to_string(intended_distinct);
        return false;
    }
    out.repeat_share =
        double(out.lines.size() - out.distinct) / double(out.lines.size());
    out.trace_reuse_share =
        out.traces ? double(reused) / double(out.traces) : 0.0;
    return true;
}

} // namespace perfbench
