/**
 * @file
 * Reproduces Figure 6's *actual* compiler algorithm (rather than the
 * profile upper bound the paper evaluates with): the StaticClassifier
 * dataflow analysis tags every memory instruction from the binary
 * alone, and this bench compares three hint sources feeding the
 * 32K-entry 1BIT-HYBRID predictor:
 *
 *   none     — hardware only (§3.4)
 *   fig6     — the static analysis (what a real compiler provides)
 *   profile  — the paper's profile-derived upper bound (§3.5.2)
 *
 * Expectation (stated by the paper): the real analysis classifies
 * fewer instructions than the profile bound, but the hardware
 * mechanism already performs so well that the difference barely
 * shows in accuracy.
 */

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "predict/static_classifier.hh"
#include "sim/simulator.hh"

using namespace arl;

namespace
{

predict::RegionPredictorConfig
pipelineConfig(bool with_hints)
{
    predict::RegionPredictorConfig config;
    config.useArpt = true;
    config.arpt.entries = 32 * 1024;
    config.arpt.counterBits = 1;
    config.arpt.context.kind = predict::ContextKind::Hybrid;
    config.arpt.context.gbhBits = 8;
    config.arpt.context.cidBits = 7;
    config.useCompilerHints = with_hints;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned scale = bench::parseScale(argc, argv);
    bench::banner("Figure 6", "static compiler classification vs the "
                  "profile upper bound (32K 1BIT-HYBRID)", scale);

    TablePrinter table;
    table.header({"Benchmark", "mem insts", "fig6 tagged%",
                  "profile tagged%", "acc none", "acc fig6",
                  "acc profile"});

    for (const auto &info : workloads::allWorkloads()) {
        auto prog = info.build(scale);

        // The static analysis needs only the binary.
        predict::StaticClassifier fig6(*prog);

        // The profile bound needs a training run.
        predict::CompilerHints profile_hints =
            core::Experiment(prog).buildHints();

        // Evaluate the three predictor variants on a fresh run.
        predict::RegionPredictor none(pipelineConfig(false));
        predict::RegionPredictor with_fig6(pipelineConfig(true), &fig6);
        predict::RegionPredictor with_profile(pipelineConfig(true),
                                              &profile_hints);
        sim::Simulator simulator(prog);
        simulator.run(0, [&](const sim::StepInfo &step) {
            none.observe(step);
            with_fig6.observe(step);
            with_profile.observe(step);
        });

        double profile_tagged =
            profile_hints.staticInstructions()
                ? 100.0 * profile_hints.classifiedInstructions() /
                      profile_hints.staticInstructions()
                : 0.0;
        table.row({info.name, std::to_string(fig6.memInstructions()),
                   TablePrinter::num(fig6.coveragePct(), 1),
                   TablePrinter::num(profile_tagged, 1),
                   TablePrinter::num(none.report().accuracyPct(), 3),
                   TablePrinter::num(with_fig6.report().accuracyPct(), 3),
                   TablePrinter::num(
                       with_profile.report().accuracyPct(), 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper (§3.5.2): \"although a real compiler will "
                "produce more unknown cases, the quality ... will be "
                "close to the profile information\".\n");
    std::printf("note: profile tagged%% counts dynamically-executed "
                "static instructions; fig6 covers all %s\n",
                "memory instructions in the binary.");
    return 0;
}
