/**
 * @file
 * Ablation: how the hybrid context's GBH/CID bit split affects a
 * *limited* 32K-entry ARPT (the configuration the §4 pipeline uses:
 * 8 GBH + 7 CID bits, per §4.3).
 *
 * More context bits capture more path information but increase
 * aliasing pressure in a fixed-size tagless table — the trade-off
 * behind Table 3 / Figure 5.
 */

#include "bench/bench_util.hh"
#include "core/experiment.hh"

using namespace arl;

namespace
{

core::NamedScheme
splitScheme(unsigned gbh_bits, unsigned cid_bits)
{
    core::NamedScheme scheme;
    scheme.name = std::to_string(gbh_bits) + "g+" +
                  std::to_string(cid_bits) + "c";
    scheme.config.useArpt = true;
    scheme.config.arpt.entries = 32 * 1024;
    scheme.config.arpt.counterBits = 1;
    scheme.config.arpt.context.kind =
        (gbh_bits == 0 && cid_bits == 0)
            ? predict::ContextKind::None
            : predict::ContextKind::Hybrid;
    scheme.config.arpt.context.gbhBits = gbh_bits;
    scheme.config.arpt.context.cidBits = cid_bits;
    return scheme;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = bench::parseScale(argc, argv);
    bench::banner("Ablation", "hybrid context bit split in a 32K-entry "
                  "ARPT", scale);

    std::vector<core::NamedScheme> schemes = {
        splitScheme(0, 0),   splitScheme(15, 0), splitScheme(0, 15),
        splitScheme(8, 7),   splitScheme(4, 11), splitScheme(12, 3),
        splitScheme(8, 24),
    };

    TablePrinter table;
    {
        std::vector<std::string> head{"Benchmark"};
        for (const auto &scheme : schemes)
            head.push_back(scheme.name);
        table.header(head);
    }

    std::vector<double> sums(schemes.size(), 0.0);
    unsigned count = 0;
    auto sweep_result = bench::regionGrid(schemes, scale, argc, argv);
    for (const auto &point : sweep_result.region) {
        std::vector<std::string> row{point.workload};
        for (std::size_t i = 0; i < point.schemes.size(); ++i) {
            double acc = point.schemes[i].second.accuracyPct();
            row.push_back(TablePrinter::num(acc, 3));
            sums[i] += acc;
        }
        table.row(row);
        ++count;
    }
    std::vector<std::string> avg{"Average"};
    for (double sum : sums)
        avg.push_back(TablePrinter::num(sum / count, 3));
    table.row(avg);
    std::printf("%s\n", table.render().c_str());
    std::printf("the pipeline of §4.3 uses 8 GBH + 7 CID bits.\n");
    bench::printSweepMeter(sweep_result);
    return 0;
}
