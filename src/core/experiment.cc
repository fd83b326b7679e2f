#include "core/experiment.hh"

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "sim/step_source.hh"

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
                        bool use_hints, InstCount max_insts,
                        obs::Hooks *hooks)
{
    predict::CompilerHints hints;
    if (use_hints)
        hints = buildHints(max_insts);
    obs::Hooks local;
    sim::Simulator simulator(prog);
    sim::SimulatorSource source(simulator);
    RegionStudyResult result =
        sweep::RegionPass(schemes, hooks ? *hooks : local,
                          use_hints ? &hints : nullptr)
            .run(source, max_insts);
    result.workload = prog->name;
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
