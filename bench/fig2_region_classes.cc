/**
 * @file
 * Reproduces Figure 2: breakdown of static memory instructions by
 * the set of regions they access at run time (classes D, H, S, D/H,
 * D/S, H/S, D/H/S), plus the dynamic share of multi-region
 * instructions.
 *
 * Paper headline: an average of 1.8 % (integer) / 1.9 % (FP) of
 * static memory instructions access more than one region; those
 * account for 0–9.6 % of dynamic references; over 50 % of static
 * memory instructions are stack-only.
 */

#include "bench/bench_util.hh"
#include "core/experiment.hh"

using namespace arl;

int
main(int argc, char **argv)
{
    unsigned scale = bench::parseScale(argc, argv);
    bench::banner("Figure 2", "static memory instructions by accessed "
                  "region set", scale);
    bench::JsonSink json("fig2_region_classes", argc, argv);

    TablePrinter table;
    table.header({"Benchmark", "D", "H", "S", "D/H", "D/S", "H/S",
                  "D/H/S", "multi(st)%", "multi(dyn)%", "S(static)%"});

    double int_multi_static = 0.0, fp_multi_static = 0.0;
    unsigned int_count = 0, fp_count = 0;

    for (const auto &info : workloads::allWorkloads()) {
        auto profile =
            core::Experiment(info.build(scale)).regionStudy({}).profile;

        std::vector<std::string> row{info.name};
        for (unsigned c = 0; c < profile::NumRegionClasses; ++c) {
            row.push_back(std::to_string(profile.staticCounts[c]));
            json.add(info.name, "functional",
                     "static." +
                         profile::regionClassName(
                             static_cast<profile::RegionClass>(c)),
                     static_cast<double>(profile.staticCounts[c]));
        }
        json.add(info.name, "functional", "multi_region_static_pct",
                 profile.staticMultiRegionPct());
        json.add(info.name, "functional", "multi_region_dynamic_pct",
                 profile.dynamicMultiRegionPct());
        row.push_back(TablePrinter::num(profile.staticMultiRegionPct(), 2));
        row.push_back(
            TablePrinter::num(profile.dynamicMultiRegionPct(), 2));
        double stack_static =
            profile.staticTotal()
                ? 100.0 *
                      profile.staticCounts[static_cast<unsigned>(
                          profile::RegionClass::S)] /
                      profile.staticTotal()
                : 0.0;
        row.push_back(TablePrinter::num(stack_static, 1));
        table.row(row);

        if (info.floatingPoint) {
            fp_multi_static += profile.staticMultiRegionPct();
            ++fp_count;
        } else {
            int_multi_static += profile.staticMultiRegionPct();
            ++int_count;
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("average multi-region static instructions: integer "
                "%.2f%%, FP %.2f%%  (paper: 1.8%% / 1.9%%)\n",
                int_count ? int_multi_static / int_count : 0.0,
                fp_count ? fp_multi_static / fp_count : 0.0);
    return json.write() ? 0 : 2;
}
