#include "runner/grids.hh"

#include "common/bits.hh"
#include "core/experiment.hh"
#include "corpus/corpus.hh"
#include "ooo/config.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace perfbench
{

namespace
{

/** Timed instructions per Fig. 8 grid point. */
constexpr InstCount kFig8Timed = 30000;
/** Timed instructions per contended grid point. */
constexpr InstCount kContendedTimed = 60000;
/** Region-study instruction cap per registry row. */
constexpr InstCount kStudyInsts = 400000;
/** Sampled population (timed window) per sampled_warm row. */
constexpr InstCount kSampledTimed = 400000;

sweep::WorkloadSpec
registryRow(const std::string &name, std::uint64_t seed, InstCount timed)
{
    const auto &info = workloads::workloadByName(name);
    sweep::WorkloadSpec w;
    w.name = info.name;
    w.scale = 1;
    w.warmup = info.warmupInsts + seedOffset(seed, name);
    w.timed = timed;
    return w;
}

} // namespace

sweep::SchemeSpec
finiteHybrid(std::uint32_t entries)
{
    sweep::SchemeSpec scheme;
    scheme.name = "HYBRID-" + std::to_string(entries / 1024) + "K";
    scheme.config.useArpt = true;
    scheme.config.arpt.entries = entries;
    scheme.config.arpt.counterBits = 1;
    scheme.config.arpt.context.kind = predict::ContextKind::Hybrid;
    unsigned index_bits = floorLog2(entries);
    scheme.config.arpt.context.gbhBits = 8;
    scheme.config.arpt.context.cidBits =
        index_bits > 8 ? index_bits - 8 : 0;
    return scheme;
}

ooo::ContentionKnobs
contendedKnobs()
{
    ooo::ContentionKnobs knobs;
    knobs.banks = 4;
    knobs.mshrs = 8;
    knobs.wbBuffer = 4;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    return knobs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig8_timing", "contended_mem", "region_study", "sampled_warm"};
    return names;
}

InstCount
seedOffset(std::uint64_t seed, const std::string &row)
{
    if (seed == kDefaultSeed)
        return 0;
    // FNV-1a over the row name, mixed with the seed (splitmix64).
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : row)
        h = (h ^ c) * 0x100000001b3ull;
    std::uint64_t z = h + seed * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return (z % (kMaxSeedOffset / 1000)) * 1000;
}

bool
buildGrid(const std::string &name, std::uint64_t seed,
          const std::string &corpus_dir,
          const std::string &trace_cache_dir, sweep::SweepSpec &out,
          std::string *error)
{
    sweep::SweepSpec spec;
    spec.jobs = 1;
    if (name == "fig8_timing") {
        for (const auto &info : workloads::allWorkloads())
            spec.workloads.push_back(
                registryRow(info.name, seed, kFig8Timed));
        spec.configs = ooo::MachineConfig::figure8Suite();
    } else if (name == "contended_mem") {
        for (const char *row : {"li_like", "compress_like", "swim_like",
                                "mgrid_like", "gcc_like"})
            spec.workloads.push_back(
                registryRow(row, seed, kContendedTimed));
        spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                        ooo::MachineConfig::nPlusM(4, 0),
                        ooo::MachineConfig::nPlusM(3, 1),
                        ooo::MachineConfig::nPlusM(3, 3)};
        for (ooo::MachineConfig &config : spec.configs)
            config.applyContention(contendedKnobs());
    } else if (name == "region_study") {
        // No fast-forward here, so the seed leaves this grid alone.
        for (const auto &info : workloads::allWorkloads()) {
            sweep::WorkloadSpec w;
            w.name = info.name;
            w.studyInsts = kStudyInsts;
            spec.workloads.push_back(std::move(w));
        }
        std::vector<sweep::WorkloadSpec> corpus_rows;
        if (!corpus::corpusWorkloadSpecs(corpus_dir, 0, corpus_rows,
                                         error))
            return false;
        for (sweep::WorkloadSpec &w : corpus_rows)
            spec.workloads.push_back(std::move(w));
        spec.schemes = core::toSweepSchemes(core::figure4Schemes());
        spec.schemes.push_back(finiteHybrid(32 * 1024));
        spec.schemes.push_back(finiteHybrid(8 * 1024));
    } else if (name == "sampled_warm") {
        for (const char *row : {"go_like", "gcc_like", "li_like",
                                "tomcatv_like", "swim_like",
                                "mgrid_like"})
            spec.workloads.push_back(
                registryRow(row, seed, kSampledTimed));
        spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                        ooo::MachineConfig::nPlusM(3, 3),
                        ooo::MachineConfig::nPlusM(16, 0)};
        spec.sampling = true;
        spec.seekFastForward = true;
        spec.traceCacheDir = trace_cache_dir;
        spec.traceFormat = trace::TraceFormat::V2;
    } else {
        if (error)
            *error = "unknown workload '" + name + "'";
        return false;
    }
    out = std::move(spec);
    return true;
}

std::uint64_t
guestInsts(const sweep::SweepSpec &spec, const sweep::SweepResult &result)
{
    std::uint64_t total = result.traceInstructions;
    const std::size_t stride = result.numConfigs ? result.numConfigs : 1;
    for (std::size_t i = 0; i < result.timing.size(); ++i) {
        const sweep::TimingPoint &point = result.timing[i];
        if (point.sampling.enabled)
            total += point.sampling.simulatedInsts;
        else
            total += spec.workloads[i / stride].warmup +
                     point.stats.instructions;
    }
    for (const sweep::RegionPoint &point : result.region)
        total += point.instructions;
    return total;
}

} // namespace perfbench
