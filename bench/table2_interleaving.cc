/**
 * @file
 * Reproduces Table 2: average number (and standard deviation) of
 * data, heap, and stack accesses in the last 32 and 64 executed
 * instructions, sampled every instruction.
 *
 * A region is "strictly bursty" when its σ exceeds its mean; the
 * paper observes that heap accesses are bursty almost everywhere,
 * stack accesses in about half the programs at window 32, and data
 * accesses almost nowhere.
 */

#include "bench/bench_util.hh"
#include "core/experiment.hh"

using namespace arl;

namespace
{

std::string
cell(const profile::WindowStats &stats, unsigned region)
{
    std::string text =
        TablePrinter::meanSd(stats.mean[region], stats.stddev[region]);
    if (stats.strictlyBursty(region))
        text += "*";
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = bench::parseScale(argc, argv);
    bench::banner("Table 2", "region access interleaving in 32/64-"
                  "instruction sliding windows ('*' = strictly bursty)",
                  scale);

    TablePrinter table;
    table.header({"Benchmark", "W32 Data", "W32 Heap", "W32 Stack",
                  "W64 Data", "W64 Heap", "W64 Stack"});

    std::array<double, 3> sum32{}, sum64{};
    unsigned count = 0;

    for (const auto &info : workloads::allWorkloads()) {
        auto study = core::Experiment(info.build(scale)).regionStudy({});
        const auto &stats32 = study.window32;
        const auto &stats64 = study.window64;
        table.row({info.name, cell(stats32, 0), cell(stats32, 1),
                   cell(stats32, 2), cell(stats64, 0), cell(stats64, 1),
                   cell(stats64, 2)});
        for (unsigned r = 0; r < 3; ++r) {
            sum32[r] += stats32.mean[r];
            sum64[r] += stats64.mean[r];
        }
        ++count;
    }
    table.row({"Average", TablePrinter::num(sum32[0] / count),
               TablePrinter::num(sum32[1] / count),
               TablePrinter::num(sum32[2] / count),
               TablePrinter::num(sum64[0] / count),
               TablePrinter::num(sum64[1] / count),
               TablePrinter::num(sum64[2] / count)});
    std::printf("%s\n", table.render().c_str());
    std::printf("paper averages: W32 D 4.79 H 1.77 S 4.77; "
                "W64 D 9.58 H 3.54 S 9.54\n");
    return 0;
}
