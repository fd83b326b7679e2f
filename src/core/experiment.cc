#include "core/experiment.hh"

#include "common/logging.hh"
#include "sim/simulator.hh"

namespace arl::core
{

namespace
{

predict::RegionPredictorConfig
makeUnlimited(predict::ContextKind kind, bool use_arpt)
{
    predict::RegionPredictorConfig config;
    config.useArpt = use_arpt;
    config.arpt.entries = 0;  // unlimited
    config.arpt.counterBits = 1;
    config.arpt.context.kind = kind;
    config.arpt.context.gbhBits = 8;
    config.arpt.context.cidBits = 24;
    return config;
}

} // namespace

std::vector<NamedScheme>
figure4Schemes()
{
    return {
        {"STATIC", makeUnlimited(predict::ContextKind::None, false)},
        {"1BIT", makeUnlimited(predict::ContextKind::None, true)},
        {"1BIT-GBH", makeUnlimited(predict::ContextKind::Gbh, true)},
        {"1BIT-CID", makeUnlimited(predict::ContextKind::Cid, true)},
        {"1BIT-HYBRID",
         makeUnlimited(predict::ContextKind::Hybrid, true)},
    };
}

std::vector<sweep::SchemeSpec>
toSweepSchemes(const std::vector<NamedScheme> &schemes)
{
    std::vector<sweep::SchemeSpec> specs;
    specs.reserve(schemes.size());
    for (const NamedScheme &scheme : schemes)
        specs.push_back({scheme.name, scheme.config});
    return specs;
}

std::vector<NamedScheme>
twoBitSchemes()
{
    auto with_bits = [](predict::ContextKind kind) {
        predict::RegionPredictorConfig config = makeUnlimited(kind, true);
        config.arpt.counterBits = 2;
        return config;
    };
    return {
        {"2BIT", with_bits(predict::ContextKind::None)},
        {"2BIT-HYBRID", with_bits(predict::ContextKind::Hybrid)},
    };
}

Experiment::Experiment(std::shared_ptr<const vm::Program> program)
    : prog(std::move(program))
{
    ARL_ASSERT(prog != nullptr);
}

predict::CompilerHints
Experiment::buildHints(InstCount max_insts) const
{
    predict::CompilerHints hints;
    sim::Simulator simulator(prog);
    simulator.run(max_insts, [&hints](const sim::StepInfo &step) {
        hints.observe(step);
    });
    return hints;
}

RegionStudyResult
Experiment::regionStudy(const std::vector<NamedScheme> &schemes,
                        bool use_hints, InstCount max_insts)
{
    RegionStudyResult result;
    result.workload = prog->name;

    predict::CompilerHints hints;
    if (use_hints)
        hints = buildHints(max_insts);

    profile::RegionProfiler region_profiler;
    profile::WindowProfiler win32(32);
    profile::WindowProfiler win64(64);

    std::vector<std::unique_ptr<predict::RegionPredictor>> predictors;
    predictors.reserve(schemes.size());
    for (const NamedScheme &scheme : schemes) {
        predict::RegionPredictorConfig config = scheme.config;
        config.useCompilerHints = use_hints;
        predictors.push_back(std::make_unique<predict::RegionPredictor>(
            config, use_hints ? &hints : nullptr));
    }

    sim::Simulator simulator(prog);
    result.instructions =
        simulator.run(max_insts, [&](const sim::StepInfo &step) {
            region_profiler.observe(step);
            win32.observe(step);
            win64.observe(step);
            for (auto &predictor : predictors)
                predictor->observe(step);
        });

    result.profile = region_profiler.profile();
    result.window32 = win32.stats_summary();
    result.window64 = win64.stats_summary();
    for (std::size_t i = 0; i < schemes.size(); ++i)
        result.schemes.emplace_back(schemes[i].name,
                                    predictors[i]->report());
    return result;
}

TimingResult
Experiment::timingStudy(const ooo::MachineConfig &config,
                        InstCount warmup_insts,
                        InstCount max_insts,
                        obs::Hooks *hooks,
                        std::shared_ptr<sim::StepSource> step_source,
                        InstCount warmup_window) const
{
    ooo::OooCore core(config, prog, std::move(step_source));
    core.attachObs(hooks);
    return core.measure(warmup_insts, warmup_window, max_insts);
}

arl::sweep::SweepResult
Experiment::sweep(const arl::sweep::SweepSpec &spec)
{
    return arl::sweep::runSweep(spec);
}

std::vector<TimingResult>
Experiment::timingSweep(const std::vector<ooo::MachineConfig> &configs,
                        InstCount warmup_insts,
                        InstCount max_insts) const
{
    std::vector<TimingResult> results;
    results.reserve(configs.size());
    for (const ooo::MachineConfig &config : configs)
        results.push_back(timingStudy(config, warmup_insts, max_insts));
    return results;
}

} // namespace arl::core
