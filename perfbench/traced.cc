#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <semaphore>
#include <sstream>

#include "common/json.hh"
#include "core/logic_study.hh"
#include "core/memory_study.hh"
#include "core/study_json.hh"
#include "core/thermal_study.hh"
#include "cpu/suite.hh"
#include "exec/pool.hh"
#include "floorplan/reference.hh"
#include "mem/engine.hh"
#include "mem/params.hh"
#include "power/scaling.hh"
#include "runs.hh"
#include "serve/request.hh"
#include "thermal/solver.hh"
#include "thermal/stacks.hh"
#include "trace/columns.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace core = stack3d::core;
namespace thermal = stack3d::thermal;
using stack3d::JsonWriter;
using stack3d::floorplan::Floorplan;
using stack3d::serve::Request;
using stack3d::serve::StudyKind;

void
WorkCounts::add(const WorkCounts &o)
{
    cells += o.cells;
    records += o.records;
    decode_batches += o.decode_batches;
    replay_records += o.replay_records;
    replay_batches += o.replay_batches;
    tag_probes += o.tag_probes;
    solves += o.solves;
    warm_solves += o.warm_solves;
    cg_iterations += o.cg_iterations;
    v_cycles += o.v_cycles;
    smoother_sweeps += o.smoother_sweeps;
    cell_iterations += o.cell_iterations;
    uops += o.uops;
}

namespace {

/** Run @p fn inside a span and hand back its result. */
template <typename F>
auto
inSpan(SpanLog &log, const char *name, F &&fn)
{
    Span span(log, name);
    return fn();
}

/** One study's layer calls, each under its span. */
class StudyReplay
{
  public:
    StudyReplay(SpanLog &log, WorkCounts &counts)
        : _log(log), _counts(counts)
    {
    }

    /** The report JSON StudyService::execute would produce. */
    std::string run(const Request &request);

  private:
    void memory(const core::RunOptions &opts,
                const core::MemoryStudySpec &spec, JsonWriter &w);
    void stackThermal(const core::RunOptions &opts,
                      const core::StackThermalSpec &spec, JsonWriter &w);
    void sensitivity(const core::RunOptions &opts,
                     const core::SensitivitySpec &spec, JsonWriter &w);
    void logic(const core::RunOptions &opts,
               const core::LogicStudySpec &spec, JsonWriter &w);

    /** core::solveFloorplanThermals, one layer call at a time. */
    core::ThermalPoint solve(const Floorplan &combined,
                             thermal::StackedDieType die2_type,
                             const thermal::PackageModel &pkg,
                             unsigned die_nx, unsigned die_ny,
                             const thermal::SolverOptions &solver,
                             core::ThermalSolution *solution_out = nullptr);

    void countSolve(const thermal::SolveInfo &info, std::size_t cells);

    /** Close the study: meta, then the report bytes. */
    template <typename WritePayload>
    void finish(core::StudyTracker &tracker, JsonWriter &w,
                WritePayload &&write_payload);

    SpanLog &_log;
    WorkCounts &_counts;
};

std::string
StudyReplay::run(const Request &request)
{
    // The service's execute(): cap threads, silence the study.
    core::RunOptions opts = request.options;
    const unsigned max_threads =
        stack3d::serve::ServiceOptions().max_study_threads;
    if (opts.threads == 0 || opts.threads > max_threads)
        opts.threads = max_threads;
    opts.verbosity = core::Verbosity::Silent;
    opts.progress = nullptr;
    opts.cancel = nullptr;

    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("study").value(stack3d::serve::studyKindName(request.kind));
    switch (request.kind) {
      case StudyKind::Memory:
        memory(opts, request.memory, w);
        break;
      case StudyKind::StackThermal:
        stackThermal(opts, request.stack_thermal, w);
        break;
      case StudyKind::Sensitivity:
        sensitivity(opts, request.sensitivity, w);
        break;
      case StudyKind::Logic:
        logic(opts, request.logic, w);
        break;
    }
    w.endObject();
    return os.str();
}

template <typename WritePayload>
void
StudyReplay::finish(core::StudyTracker &tracker, JsonWriter &w,
                    WritePayload &&write_payload)
{
    core::StudyMeta meta = tracker.finish();
    _counts.cells += meta.cells.size();
    Span span(_log, "core.report_json");
    w.key("meta").beginObject();
    core::writeMetaJson(w, meta);
    w.endObject();
    w.key("payload");
    write_payload();
}

void
StudyReplay::countSolve(const thermal::SolveInfo &info, std::size_t cells)
{
    ++_counts.solves;
    _counts.warm_solves += info.warm_start_used ? 1 : 0;
    _counts.cg_iterations += info.iterations;
    _counts.v_cycles += info.v_cycles;
    _counts.smoother_sweeps += info.smoother_sweeps;
    _counts.cell_iterations += double(cells) * double(info.iterations);
}

// ---- memory: core::runMemoryStudy with threads = 1 ------------------

void
StudyReplay::memory(const core::RunOptions &opts,
                    const core::MemoryStudySpec &spec, JsonWriter &w)
{
    std::vector<std::string> benchmarks = spec.benchmarks;
    if (benchmarks.empty())
        benchmarks = stack3d::workloads::rmsKernelNames();
    const std::size_t nb = benchmarks.size();
    const std::size_t no = core::kStackOptions.size();
    core::StudyTracker tracker("memory", nb * (1 + no), opts);
    core::MemoryStudyResult result;
    result.rows.resize(nb);
    std::vector<stack3d::trace::TraceBuffer> traces(nb);

    for (std::size_t b = 0; b < nb; ++b) {
        const std::string &name = benchmarks[b];
        tracker.runCell(b * (1 + no), name + "/trace", [&] {
            core::MemoryStudyRow &row = result.rows[b];
            inSpan(_log, "workloads.generate", [&] {
                auto kernel = stack3d::workloads::makeRmsKernel(name);
                stack3d::workloads::WorkloadConfig wcfg;
                wcfg.scale = opts.scale;
                wcfg.seed = core::deriveCellSeed(opts.seed,
                                                 core::cellKey(name));
                wcfg.records_per_thread = std::uint64_t(
                    double(core::recommendedRecordsPerThread(name)) *
                    opts.depth);
                if (wcfg.records_per_thread < 1000)
                    wcfg.records_per_thread = 1000;
                traces[b] = kernel->generate(wcfg);
                row.footprint_mb =
                    double(kernel->nominalFootprintBytes(wcfg)) /
                    (1 << 20);
            });
            row.benchmark = name;
            row.records = traces[b].size();
            _counts.records += traces[b].size();
            _counts.decode_batches += inSpan(_log, "trace.decode", [&] {
                return traces[b].columns().decodeBatches();
            });
        });
    }

    for (std::size_t i = 0; i < nb * no; ++i) {
        const std::size_t b = i / no, o = i % no;
        const std::string label =
            benchmarks[b] + "/" +
            stack3d::mem::stackOptionName(core::kStackOptions[o]);
        tracker.runCell(b * (1 + no) + 1 + o, label, [&] {
            auto hier = inSpan(_log, "mem.hierarchy", [&] {
                return std::make_unique<stack3d::mem::MemoryHierarchy>(
                    stack3d::mem::makeHierarchyParams(
                        core::kStackOptions[o]));
            });
            stack3d::mem::EngineResult er =
                inSpan(_log, "mem.replay", [&] {
                    stack3d::mem::TraceEngine engine(spec.engine);
                    return engine.run(traces[b], *hier);
                });
            inSpan(_log, "mem.teardown", [&] { hier.reset(); });
            core::MemoryStudyRow &row = result.rows[b];
            row.cpma[o] = er.cpma;
            row.bw_gbps[o] = er.offdie_gbps;
            row.bus_power_w[o] = er.bus_power_w;
            row.llc_miss[o] = er.llc_miss_rate;
            _counts.replay_records += er.num_records;
            _counts.replay_batches +=
                std::uint64_t(er.counters.value("replay.batches"));
            _counts.tag_probes +=
                std::uint64_t(er.counters.value("tag_probe.probes"));
        });
    }
    inSpan(_log, "trace.teardown", [&] { traces.clear(); });

    // The study's merge, in canonical row order (32 MB option vs
    // the 4 MB baseline).
    core::MemoryStudySummary &sum = result.summary;
    double n = double(result.rows.size());
    double bw_base_total = 0.0;
    double bw_32_total = 0.0;
    for (const core::MemoryStudyRow &row : result.rows) {
        double reduction =
            row.cpma[0] > 0.0 ? 1.0 - row.cpma[2] / row.cpma[0] : 0.0;
        sum.avg_cpma_reduction_32m += reduction / n;
        sum.max_cpma_reduction_32m =
            std::max(sum.max_cpma_reduction_32m, reduction);
        bw_base_total += row.bw_gbps[0];
        bw_32_total += row.bw_gbps[2];
        if (row.bus_power_w[0] > 0.0) {
            sum.avg_bus_power_reduction_32m +=
                (1.0 - row.bus_power_w[2] / row.bus_power_w[0]) / n;
        }
        sum.avg_bus_power_saving_w +=
            (row.bus_power_w[0] - row.bus_power_w[2]) / n;
    }
    if (bw_32_total > 0.0)
        sum.avg_bw_reduction_factor_32m = bw_base_total / bw_32_total;

    finish(tracker, w,
           [&] { core::writeMemoryStudyResultJson(w, result); });
}

// ---- thermal -----------------------------------------------------------

core::ThermalPoint
StudyReplay::solve(const Floorplan &combined,
                   thermal::StackedDieType die2_type,
                   const thermal::PackageModel &pkg, unsigned die_nx,
                   unsigned die_ny, const thermal::SolverOptions &solver,
                   core::ThermalSolution *solution_out)
{
    const bool two_die = die2_type != thermal::StackedDieType::None;
    core::ThermalPoint point;
    auto powers = inSpan(_log, "floorplan.build", [&] {
        std::vector<thermal::PowerMap> maps;
        maps.push_back(combined.powerMap(die_nx, die_ny, 0));
        if (two_die)
            maps.push_back(combined.powerMap(die_nx, die_ny, 1));
        point.total_power_w = combined.totalPower();
        return maps;
    });
    auto mesh = inSpan(_log, "thermal.mesh", [&] {
        thermal::StackGeometry geom =
            two_die ? thermal::makeTwoDieStack(combined.width(),
                                               combined.height(),
                                               die2_type, pkg, {})
                    : thermal::makePlanarStack(combined.width(),
                                               combined.height(), pkg,
                                               {});
        auto m = std::make_shared<thermal::Mesh>(geom, die_nx, die_ny);
        m->setLayerPower(geom.layerIndex("active1"), powers[0]);
        if (two_die)
            m->setLayerPower(geom.layerIndex("active2"), powers[1]);
        return m;
    });
    thermal::TemperatureField field = inSpan(_log, "thermal.solve", [&] {
        return thermal::solveSteadyState(*mesh, solver, &point.solve);
    });
    countSolve(point.solve, mesh->numCells());
    inSpan(_log, "thermal.field", [&] {
        const thermal::StackGeometry &geom = mesh->geometry();
        unsigned a1 = geom.layerIndex("active1");
        point.die1_peak_c = field.layerPeak(a1);
        point.min_c = field.layerMin(a1);
        point.peak_c = point.die1_peak_c;
        if (two_die) {
            unsigned a2 = geom.layerIndex("active2");
            point.die2_peak_c = field.layerPeak(a2);
            point.peak_c = std::max(point.peak_c, point.die2_peak_c);
            point.min_c = std::min(point.min_c, field.layerMin(a2));
        }
    });
    if (solution_out) {
        solution_out->mesh = mesh;
        solution_out->field = std::move(field);
    }
    return point;
}

void
StudyReplay::stackThermal(const core::RunOptions &opts,
                          const core::StackThermalSpec &spec,
                          JsonWriter &w)
{
    namespace fp = stack3d::floorplan;
    using thermal::StackedDieType;
    core::StudyTracker tracker("stack-thermal", 4, opts);
    core::StackThermalResult result;
    const unsigned nx = spec.die_nx, ny = spec.die_ny;
    Floorplan base =
        inSpan(_log, "floorplan.build", [] { return fp::makeCore2Duo(); });
    thermal::SolverOptions sopt;
    sopt.precond = opts.thermal_precond;

    tracker.runCell(0, "baseline4m", [&] {
        result.options[0] =
            solve(base, StackedDieType::None, {}, nx, ny, sopt);
    });
    tracker.runCell(1, "sram12m", [&] {
        Floorplan combined = inSpan(_log, "floorplan.build", [&] {
            Floorplan sram = fp::makeCacheDie(
                base, "sram8m", fp::budgets::stacked_sram_8mb);
            return fp::stackFloorplans(base, sram, "core2_12m");
        });
        result.options[1] =
            solve(combined, StackedDieType::LogicSram, {}, nx, ny, sopt);
    });
    // dram64m warm-starts from dram32m's field, as in the study.
    core::ThermalSolution sol32;
    tracker.runCell(2, "dram32m", [&] {
        Floorplan combined = inSpan(_log, "floorplan.build", [&] {
            Floorplan base32 = fp::makeCore2BaseDie32MKeepOutline();
            Floorplan dram = fp::makeCacheDie(
                base32, "dram32m", fp::budgets::stacked_dram_32mb);
            return fp::stackFloorplans(base32, dram, "core2_32m");
        });
        result.options[2] = solve(combined, StackedDieType::Dram, {}, nx,
                                  ny, sopt, &sol32);
    });
    tracker.runCell(3, "dram64m", [&] {
        Floorplan combined = inSpan(_log, "floorplan.build", [&] {
            Floorplan dram = fp::makeCacheDie(
                base, "dram64m", fp::budgets::stacked_dram_64mb);
            return fp::stackFloorplans(base, dram, "core2_64m");
        });
        thermal::SolverOptions warm = sopt;
        if (sol32.field)
            warm.warm_start = &sol32.field->raw();
        result.options[3] =
            solve(combined, StackedDieType::Dram, {}, nx, ny, warm);
    });
    finish(tracker, w,
           [&] { core::writeStackThermalResultJson(w, result); });
}

void
StudyReplay::sensitivity(const core::RunOptions &opts,
                         const core::SensitivitySpec &spec, JsonWriter &w)
{
    Floorplan stacked = inSpan(_log, "floorplan.build", [] {
        return stack3d::floorplan::makePentium43D();
    });
    const thermal::PackageModel pkg = thermal::makeP4Package();
    const std::size_t np = spec.conductivities.size();
    core::StudyTracker tracker("sensitivity", np * 2, opts);
    std::vector<core::SensitivityPoint> points(np);
    for (std::size_t i = 0; i < np; ++i)
        points[i].conductivity = spec.conductivities[i];
    thermal::SolverOptions sopt;
    sopt.precond = opts.thermal_precond;

    // Two chains, Cu metal then bond, each assembling its mesh once,
    // updating the swept layer's conductances and warm-starting
    // every later point from the previous field.
    for (std::size_t chain = 0; chain < 2; ++chain) {
        const bool sweep_bond = chain == 1;
        std::shared_ptr<thermal::Mesh> mesh;
        std::vector<double> prev_field;
        for (std::size_t i = 0; i < np; ++i) {
            const double k = spec.conductivities[i];
            std::string label = "k=" + std::to_string(int(k)) +
                                (sweep_bond ? "/bond" : "/cu");
            tracker.runCell(i * 2 + chain, label, [&] {
                if (!mesh) {
                    auto maps = inSpan(_log, "floorplan.build", [&] {
                        return std::vector<thermal::PowerMap>{
                            stacked.powerMap(spec.die_nx, spec.die_ny, 0),
                            stacked.powerMap(spec.die_nx, spec.die_ny, 1)};
                    });
                    mesh = inSpan(_log, "thermal.mesh", [&] {
                        thermal::StackOverrides ovr;
                        if (sweep_bond)
                            ovr.bond_conductivity = k;
                        else
                            ovr.cu_metal_conductivity = k;
                        thermal::StackGeometry geom =
                            thermal::makeTwoDieStack(
                                stacked.width(), stacked.height(),
                                thermal::StackedDieType::LogicSram, pkg,
                                ovr);
                        auto m = std::make_shared<thermal::Mesh>(
                            geom, spec.die_nx, spec.die_ny);
                        m->setLayerPower(geom.layerIndex("active1"),
                                         maps[0]);
                        m->setLayerPower(geom.layerIndex("active2"),
                                         maps[1]);
                        return m;
                    });
                } else {
                    inSpan(_log, "thermal.mesh", [&] {
                        const thermal::StackGeometry &geom =
                            mesh->geometry();
                        if (sweep_bond) {
                            mesh->updateLayerConductivity(
                                geom.layerIndex("bond"), k);
                        } else {
                            mesh->updateLayerConductivity(
                                geom.layerIndex("metal1"), k);
                            mesh->updateLayerConductivity(
                                geom.layerIndex("metal2"), k);
                        }
                    });
                }
                thermal::SolverOptions cell_opt = sopt;
                if (!prev_field.empty())
                    cell_opt.warm_start = &prev_field;
                thermal::SolveInfo info;
                thermal::TemperatureField field =
                    inSpan(_log, "thermal.solve", [&] {
                        return thermal::solveSteadyState(*mesh, cell_opt,
                                                         &info);
                    });
                countSolve(info, mesh->numCells());
                inSpan(_log, "thermal.field", [&] {
                    const thermal::StackGeometry &geom = mesh->geometry();
                    const double peak = std::max(
                        field.layerPeak(geom.layerIndex("active1")),
                        field.layerPeak(geom.layerIndex("active2")));
                    if (sweep_bond)
                        points[i].peak_bond_swept = peak;
                    else
                        points[i].peak_cu_swept = peak;
                    prev_field = field.raw();
                });
            });
        }
    }
    finish(tracker, w,
           [&] { core::writeSensitivityResultJson(w, points); });
}

// ---- logic: core::runLogicStudy with threads = 1 --------------------

void
StudyReplay::logic(const core::RunOptions &opts,
                   const core::LogicStudySpec &spec, JsonWriter &w)
{
    namespace fp = stack3d::floorplan;
    using thermal::StackedDieType;
    constexpr std::size_t kTable5Rows = 5;
    core::StudyTracker tracker("logic", 4 + (kTable5Rows - 1), opts);
    core::LogicStudyResult result;
    result.power_saving_3d = inSpan(_log, "power.table5", [&] {
        return 1.0 - spec.power_breakdown.stackedRelativePower();
    });
    const thermal::PackageModel pkg = thermal::makeP4Package();
    thermal::SolverOptions sopt;
    sopt.precond = opts.thermal_precond;
    Floorplan planar = inSpan(_log, "floorplan.build",
                              [] { return fp::makePentium4Planar(); });
    const double planar_density = inSpan(_log, "floorplan.build", [&] {
        return planar.peakBlockDensity(0);
    });

    stack3d::cpu::SuiteOptions suite = spec.suite;
    suite.seed = core::deriveCellSeed(opts.seed, core::cellKey("cpu-suite"));
    suite.uops_per_trace =
        std::uint64_t(double(suite.uops_per_trace) * opts.depth);
    if (suite.uops_per_trace < 1000)
        suite.uops_per_trace = 1000;

    tracker.runCell(0, "table4", [&] {
        result.table4 = inSpan(_log, "cpu.table4", [&] {
            return stack3d::cpu::computeTable4(suite);
        });
        _counts.uops += result.table4.planar.uops + result.table4.stacked.uops;
    });
    tracker.runCell(1, "fig11/planar", [&] {
        result.fig11.planar = solve(planar, StackedDieType::None, pkg,
                                    spec.die_nx, spec.die_ny, sopt);
    });
    tracker.runCell(2, "fig11/stacked", [&] {
        Floorplan stacked = inSpan(_log, "floorplan.build", [&] {
            return fp::makePentium43D(1.0 - result.power_saving_3d);
        });
        result.fig11.stacked = solve(stacked, StackedDieType::LogicSram,
                                     pkg, spec.die_nx, spec.die_ny, sopt);
        result.fig11.stacked_density_ratio =
            inSpan(_log, "floorplan.build", [&] {
                return stacked.peakStackedDensity();
            }) /
            planar_density;
    });
    tracker.runCell(3, "fig11/worst", [&] {
        Floorplan worst = inSpan(_log, "floorplan.build", [] {
            return fp::makePentium43DWorstCase();
        });
        result.fig11.worst_case = solve(worst, StackedDieType::LogicSram,
                                        pkg, spec.die_nx, spec.die_ny, sopt);
        result.fig11.worst_density_ratio =
            inSpan(_log, "floorplan.build", [&] {
                return worst.peakStackedDensity();
            }) /
            planar_density;
    });

    double gain = spec.use_measured_gain
                      ? result.table4.total_perf_gain_pct / 100.0
                      : 0.15;
    double baseline_w = planar.totalPower();
    auto points = inSpan(_log, "power.table5", [&] {
        return stack3d::power::computeTable5Points(
            baseline_w, gain, result.power_saving_3d, spec.vf_model);
    });
    result.table5.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        result.table5[i].point = points[i];
    for (std::size_t i = 0; i < points.size(); ++i) {
        core::Table5Row &row = result.table5[i];
        if (std::string(row.point.label) == "Baseline") {
            row.temp_c = result.fig11.planar.peak_c;
            continue;
        }
        tracker.runCell(4 + (i - 1),
                        std::string("table5/") + row.point.label, [&] {
            Floorplan scaled = inSpan(_log, "floorplan.build", [&] {
                return fp::makePentium43D(row.point.power_w / baseline_w);
            });
            row.temp_c = solve(scaled, StackedDieType::LogicSram, pkg,
                               spec.die_nx, spec.die_ny, sopt)
                             .peak_c;
        });
    }
    finish(tracker, w,
           [&] { core::writeLogicStudyResultJson(w, result); });
}

// ---- the request loop -----------------------------------------------

/** Gives back one admission slot at scope exit. */
struct SlotRelease
{
    std::counting_semaphore<> &slots;
    ~SlotRelease() { slots.release(); }
};

TracedRound
replayRound(const Script &script, std::uint32_t round, SpanLog &log)
{
    const std::size_t n = script.lines.size();
    TracedRound out;
    out.requests.resize(n);
    stack3d::serve::ResultCache cache(script.shape.cache_entries);
    std::mutex cache_mutex;   // guards cache (it is not synchronized)
    std::counting_semaphore<> slots(script.shape.workers);
    std::vector<std::promise<void>> done(n);
    std::vector<std::shared_future<void>> done_future;
    for (auto &p : done)
        done_future.push_back(p.get_future().share());

    auto serveOne = [&](std::size_t i, TracedRequest &tr) {
        Request request;
        std::string error;
        bool parsed = inSpan(log, "serve.parse", [&] {
            return stack3d::serve::parseRequest(script.lines[i], request,
                                                error);
        });
        if (!parsed) {
            tr.error = "parse: " + error;
            return;
        }
        std::uint64_t digest =
            inSpan(log, "serve.digest", [&] { return request.digest(); });
        const bool owner = script.twin[i] == i;
        // A repeat waits for its twin, then reads the cache, so the
        // cache statistics do not depend on thread timing.
        if (!owner)
            inSpan(log, "serve.coalesce_wait",
                   [&] { done_future[script.twin[i]].wait(); });
        tr.cache_hit = inSpan(log, "serve.cache_get", [&] {
            std::lock_guard<std::mutex> lock(cache_mutex);
            return cache.tryGet(digest, tr.report);
        });
        if (tr.cache_hit)
            return;
        if (!owner) {
            tr.error = "repeat missed the result cache";
            return;
        }
        inSpan(log, "serve.admission_wait", [&] { slots.acquire(); });
        SlotRelease release{slots};
        {
            Span study(log, "core.study");
            StudyReplay replay(log, tr.counts);
            tr.report = replay.run(request);
        }
        inSpan(log, "serve.cache_put", [&] {
            std::lock_guard<std::mutex> lock(cache_mutex);
            cache.put(digest, tr.report);
        });
    };
    auto handle = [&](std::size_t i) {
        TracedRequest &tr = out.requests[i];
        {
            Span root(log, "request", std::uint32_t(round * n + i));
            try {
                serveOne(i, tr);
            } catch (const std::exception &e) {
                tr.error = e.what();
            }
        }
        if (script.twin[i] == i)
            done[i].set_value();
    };

    std::atomic<std::size_t> next{0};
    auto client = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            handle(i);
        }
    };
    stack3d::exec::ThreadPool clients(script.shape.clients);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<void>> finished;
    for (unsigned c = 0; c < script.shape.clients; ++c)
        finished.push_back(clients.submit(client));
    for (std::future<void> &f : finished)
        f.get();
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out.cache = cache.stats();
    return out;
}

} // anonymous namespace

std::vector<TracedRound>
runTraced(const Script &script, unsigned rounds, SpanLog &log)
{
    std::vector<TracedRound> out;
    for (unsigned r = 0; r < rounds; ++r)
        out.push_back(replayRound(script, r, log));
    return out;
}

} // namespace perfbench
