/**
 * @file
 * Table 4: Logic+Logic 3D stacking performance improvement and
 * pipeline changes — per-path stage eliminations and the performance
 * gain each one buys, plus the all-paths total (~15% in the paper),
 * measured over the synthetic single-thread benchmark suite.
 *
 * Usage: table4_pipeline [--uops N] [--full-suite] [shared flags]
 * (see core::BenchCli for --trace-out/--stats-json/--quiet/...)
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/table.hh"
#include "core/cli.hh"
#include "cpu/suite.hh"

using namespace stack3d;

int
realMain(int argc, char **argv)
{
    core::BenchCli cli("table4_pipeline");
    cpu::SuiteOptions opt;
    opt.uops_per_trace = 80000;
    for (int i = 1; i < argc; ++i) {
        if (cli.consume(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--uops") == 0 && i + 1 < argc)
            opt.uops_per_trace = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--full-suite") == 0)
            opt.full_suite = true;
        else {
            std::cerr << "usage: table4_pipeline [--uops N] "
                         "[--full-suite] [flags]\n";
            core::BenchCli::printUsage(std::cerr);
            return 1;
        }
    }
    cli.begin();
    cli.addConfig("uops_per_trace", double(opt.uops_per_trace));

    if (!cli.quiet()) {
        printBanner(std::cout,
                    "Table 4: 3D stacking pipeline changes and gains");
    }

    cpu::Table4Result t4 = cpu::computeTable4(opt);
    cpu::appendTable4Counters(t4, cli.counters());

    if (!cli.quiet()) {
        static const double paper_gain[cpu::kNumPaths] = {
            0.2, 0.33, 0.66, 4.0, 0.5, 1.5, 1.0, 1.0, 2.0, 3.0};

        TextTable t({"functionality", "% stages eliminated",
                     "perf gain %", "paper %"});
        for (std::size_t i = 0; i < t4.rows.size(); ++i) {
            const auto &row = t4.rows[i];
            t.newRow().cell(cpu::pathName(row.path));
            if (row.stages_eliminated_pct < 0.0)
                t.cell("Variable");
            else
                t.cell(row.stages_eliminated_pct, 1);
            t.cell(row.perf_gain_pct, 2).cell(paper_gain[i], 2);
        }
        t.newRow()
            .cell("Total (all paths)")
            .cell("~25")
            .cell(t4.total_perf_gain_pct, 2)
            .cell(15.0, 2);
        t.print(std::cout);

        std::cout << "\nsuite: " << t4.planar.num_traces
                  << " traces; planar geomean IPC "
                  << t4.planar.geomean_ipc << " -> 3D "
                  << t4.stacked.geomean_ipc << "\n";

        std::cout << "\nper-class IPC (planar -> 3D):\n";
        for (std::size_t c = 0; c < t4.planar.class_ipc.size(); ++c) {
            std::cout << "  " << t4.planar.class_ipc[c].first << ": "
                      << t4.planar.class_ipc[c].second << " -> "
                      << t4.stacked.class_ipc[c].second << "\n";
        }
    }
    return cli.finish();
}

int
main(int argc, char **argv)
{
    // fatal() throws so user/config errors stay testable; surface them
    // here as a message + exit(1) instead of std::terminate.
    try {
        return realMain(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
