/**
 * @file
 * Reproduces Table 1: per-benchmark dynamic instruction count and
 * the percentage of dynamic load and store instructions.
 *
 * Paper values (for reference): 220–684 M instructions per program,
 * loads 14–32 %, stores 6–22 %.  Our substitutes run scaled-down
 * inputs (1–8 M instructions at scale 1) with the same instruction
 * mix character; the L/S percentages are the comparable quantity.
 */

#include "bench/bench_util.hh"
#include "core/experiment.hh"

using namespace arl;

int
main(int argc, char **argv)
{
    unsigned scale = bench::parseScale(argc, argv);
    bench::banner("Table 1", "workload inputs, instruction counts, "
                  "and load/store mix", scale);

    TablePrinter table;
    table.header({"Benchmark", "(substitute for)", "Inst. count",
                  "Loads%", "Stores%", "L/S%"});

    for (const auto &info : workloads::allWorkloads()) {
        auto profile =
            core::Experiment(info.build(scale)).regionStudy({}).profile;
        double insts = static_cast<double>(profile.totalInstructions);
        double loads_pct = 100.0 * profile.dynamicLoads / insts;
        double stores_pct = 100.0 * profile.dynamicStores / insts;
        char count[32];
        std::snprintf(count, sizeof(count), "%.1fM", insts / 1e6);
        table.row({info.name, info.paperAnalog, count,
                   TablePrinter::num(loads_pct, 1),
                   TablePrinter::num(stores_pct, 1),
                   TablePrinter::num(loads_pct + stores_pct, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: loads 14-32%%, stores 6-22%% of all "
                "instructions.\n");
    return 0;
}
