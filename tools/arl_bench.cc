/**
 * @file
 * arl_bench — the unified benchmark-trajectory runner.
 *
 * Executes a fixed suite of in-process benchmarks with pinned knobs
 * (single worker thread, fixed workloads/configs/instruction budgets,
 * scale 1) and emits one BENCH_*.json document per run: per-bench
 * wall seconds, guest MIPS, deterministic guest instruction/cycle
 * counts and named counters, plus the host self-profiler's phase
 * tree and host metadata (git SHA, compiler, CPUs, peak RSS).
 *
 * The checked-in baseline lives at bench/baselines/BENCH_0006.json;
 * `bench_compare` diffs a fresh run against it (CI does this with
 * generous tolerances).  Deterministic fields only move when
 * simulated behaviour changes; MIPS tracks the ROADMAP's raw-speed
 * goal.
 *
 *   arl_bench [--quick] [--out F] [--quiet] [--log-level L]
 *
 *   --quick   run only the fast subset (mips, mips_telemetry,
 *             replay_core, trace_codec, sampled) with the same
 *             knobs, so its records still compare exactly against
 *             the full baseline.  The full suite adds sweep_fig8, contended,
 *             region_fig4, and corpus (the checked-in corpus/ via
 *             --workload-dir; override the directory with
 *             ARL_BENCH_WORKLOAD_DIR).
 *
 *   The "mips" bench is the pinned raw-speed number the ROADMAP
 *   tracks: pure replay→OoO guest-MIPS with recording excluded from
 *   the timed window, gated in CI by bench_compare --mips-tol.
 *   --out F   output path (default BENCH_0006.json; "-" = stdout).
 *
 * ARL_UPDATE_BENCH=1 in the environment writes the report to the
 * source-tree baseline path instead (mirroring ARL_UPDATE_GOLDEN).
 *
 * Exit codes: 0 success, 1 usage error, 2 I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "corpus/corpus.hh"
#include "obs/bench_schema.hh"
#include "obs/hooks.hh"
#include "obs/profiler.hh"
#include "obs/telemetry.hh"
#include "ooo/core.hh"
#include "sweep/sweep.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Pinned per-bench instruction budget (timed window). */
constexpr InstCount kTimedInsts = 100000;
/** Pinned region-study budget. */
constexpr InstCount kStudyInsts = 200000;
/** Pinned trace-codec recording length. */
constexpr InstCount kCodecInsts = 300000;
/** Pinned sampled-bench timed window (big enough for ~20 intervals). */
constexpr InstCount kSampledInsts = 200000;

sweep::WorkloadSpec
workload(const char *name, InstCount timed, InstCount study = 0)
{
    const auto &info = workloads::workloadByName(name);
    sweep::WorkloadSpec w;
    w.name = info.name;
    w.scale = 1;
    w.warmup = info.warmupInsts;
    w.timed = timed;
    w.studyInsts = study;
    return w;
}

/** Run one sweep-backed bench; fills guest totals and counters. */
obs::BenchCase
sweepBench(const std::string &name, const sweep::SweepSpec &spec)
{
    obs::BenchCase bench;
    bench.name = name;
    Clock::time_point start = Clock::now();
    sweep::SweepResult result = sweep::runSweep(spec);
    bench.wallSeconds = secondsSince(start);

    // Guest work = every trace record replayed during recording plus
    // every warmup + timed instruction simulated per grid point.
    bench.guestInsts = result.traceInstructions;
    for (std::size_t i = 0; i < result.timing.size(); ++i) {
        const sweep::TimingPoint &point = result.timing[i];
        const sweep::WorkloadSpec &w =
            spec.workloads[i / (result.numConfigs ? result.numConfigs
                                                  : 1)];
        bench.guestInsts += w.warmup + point.stats.instructions;
        bench.guestCycles += point.stats.cycles;
    }
    for (const sweep::RegionPoint &point : result.region)
        bench.guestInsts += point.instructions;
    bench.mips = bench.wallSeconds > 0.0
                     ? bench.guestInsts / 1e6 / bench.wallSeconds
                     : 0.0;
    bench.counters.emplace_back("timing_points",
                                static_cast<double>(
                                    result.timing.size()));
    bench.counters.emplace_back("region_points",
                                static_cast<double>(
                                    result.region.size()));
    bench.counters.emplace_back("trace_insts",
                                static_cast<double>(
                                    result.traceInstructions));
    return bench;
}

obs::BenchCase
benchReplayCore()
{
    sweep::SweepSpec spec;
    spec.jobs = 1;
    spec.workloads = {workload("li_like", kTimedInsts),
                      workload("go_like", kTimedInsts)};
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 1)};
    return sweepBench("replay_core", spec);
}

obs::BenchCase
benchSweepFig8()
{
    sweep::SweepSpec spec;
    spec.jobs = 1;
    spec.workloads = {workload("compress_like", kTimedInsts)};
    spec.configs = ooo::MachineConfig::figure8Suite();
    return sweepBench("sweep_fig8", spec);
}

obs::BenchCase
benchContended()
{
    sweep::SweepSpec spec;
    spec.jobs = 1;
    spec.workloads = {workload("li_like", kTimedInsts)};
    spec.configs = {ooo::MachineConfig::nPlusM(4, 0),
                    ooo::MachineConfig::nPlusM(3, 1)};
    ooo::ContentionKnobs knobs;
    knobs.banks = 4;
    knobs.mshrs = 8;
    knobs.wbBuffer = 4;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    for (auto &config : spec.configs)
        config.applyContention(knobs);
    return sweepBench("contended", spec);
}

obs::BenchCase
benchRegionFig4()
{
    sweep::SweepSpec spec;
    spec.jobs = 1;
    spec.workloads = {workload("li_like", 0, kStudyInsts)};
    spec.schemes = core::figure4Schemes();
    return sweepBench("region_fig4", spec);
}

/**
 * Phase-sampled timing against its own full-run verification: two
 * workloads × two fig8 corner configs through the sampled sweep with
 * the verify pass on.  Deterministic counters record the sampled vs
 * full instruction counts, the instruction-level speedup, and the
 * worst measured CPI error — so the regression gate catches both an
 * accuracy regression and a coverage (speedup) regression.
 */
obs::BenchCase
benchSampled()
{
    sweep::SweepSpec spec;
    spec.jobs = 1;
    spec.workloads = {workload("go_like", kSampledInsts),
                      workload("li_like", kSampledInsts)};
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 3)};
    spec.sampling = true;       // pinned knobs: 10000 / 6 / 5000
    spec.samplingVerify = true;

    obs::BenchCase bench;
    bench.name = "sampled";
    Clock::time_point start = Clock::now();
    sweep::SweepResult result = sweep::runSweep(spec);
    bench.wallSeconds = secondsSince(start);

    // Guest work = trace recording plus the detailed-pipeline
    // instructions actually simulated: the representatives (with
    // their detailed warmup tails) and the full verify pass.  The
    // extrapolated population deliberately does NOT count — the
    // whole point is that it was never simulated.
    bench.guestInsts = result.traceInstructions;
    double max_error_pct = 0.0;
    std::uint64_t sampled_insts = 0;
    std::uint64_t full_insts = 0;
    for (const sweep::TimingPoint &point : result.timing) {
        const obs::SamplingReport &s = point.sampling;
        if (!s.enabled || s.measuredErrorPct < 0.0)
            fatal("sampled: point lost its sampling+verify report");
        bench.guestInsts += s.simulatedInsts + s.totalInsts;
        bench.guestCycles += point.stats.cycles;
        sampled_insts += s.simulatedInsts;
        full_insts += s.totalInsts;
        if (s.measuredErrorPct > max_error_pct)
            max_error_pct = s.measuredErrorPct;
    }
    bench.mips = bench.wallSeconds > 0.0
                     ? bench.guestInsts / 1e6 / bench.wallSeconds
                     : 0.0;
    bench.counters.emplace_back("timing_points",
                                static_cast<double>(
                                    result.timing.size()));
    bench.counters.emplace_back("sampled_insts",
                                static_cast<double>(sampled_insts));
    bench.counters.emplace_back("full_insts",
                                static_cast<double>(full_insts));
    bench.counters.emplace_back("insts_speedup",
                                sampled_insts
                                    ? static_cast<double>(full_insts) /
                                          sampled_insts
                                    : 0.0);
    bench.counters.emplace_back("max_measured_error_pct",
                                max_error_pct);
    return bench;
}

/**
 * The whole checked-in corpus through the --workload-dir sweep path:
 * file discovery, assembly, per-program trace recording, and one
 * timing config.  Exercises the assembler front end at benchmark
 * scale, which no other bench touches.  ARL_BENCH_WORKLOAD_DIR
 * overrides the directory (defaults to the source-tree corpus/).
 */
obs::BenchCase
benchCorpus()
{
    const char *env = std::getenv("ARL_BENCH_WORKLOAD_DIR");
    const std::string dir = env && *env ? env : ARL_CORPUS_DIR;

    sweep::SweepSpec spec;
    spec.jobs = 1;
    std::string error;
    if (!corpus::corpusWorkloadSpecs(dir, kTimedInsts,
                                     spec.workloads, &error))
        fatal("corpus: %s", error.c_str());
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0)};
    obs::BenchCase bench = sweepBench("corpus", spec);
    bench.counters.emplace_back("programs",
                                static_cast<double>(
                                    spec.workloads.size()));
    return bench;
}

/**
 * Pure replay→OoO guest-MIPS on the replay grid (li_like/go_like ×
 * two n+m configs, same points as replay_core).  Each workload is
 * recorded once before the clock starts, so the timed window covers
 * only ReplaySource→OooCore execution — no assembly, recording, or
 * sweep-engine overhead.  The grid is replayed kMipsRepeats times to
 * push the wall clock into a range where host noise stays well
 * inside the CI --mips-tol gate; every repeat simulates identical
 * work, so the deterministic guest totals stay exact multiples.
 * Without @p channel this is "mips", the pinned raw-speed number;
 * with it, every core streams heartbeats into it as one telemetry
 * job.
 */
obs::BenchCase
timeMipsGrid(const char *name, obs::TelemetryChannel *channel)
{
    constexpr int kMipsRepeats = 4;
    static const char *const kNames[] = {"li_like", "go_like"};
    const std::vector<ooo::MachineConfig> configs = {
        ooo::MachineConfig::nPlusM(2, 0),
        ooo::MachineConfig::nPlusM(3, 1)};

    struct Prepared
    {
        std::shared_ptr<const vm::Program> program;
        std::shared_ptr<const trace::InMemoryTrace> trace;
        InstCount warmup = 0;
    };
    std::vector<Prepared> prep;
    for (const char *workload : kNames) {
        Prepared p;
        p.program = workloads::buildWorkload(workload, 1);
        p.warmup = workloads::workloadByName(workload).warmupInsts;
        p.trace =
            trace::recordToMemory(p.program, p.warmup + kTimedInsts);
        prep.push_back(std::move(p));
    }

    obs::BenchCase bench;
    bench.name = name;
    Clock::time_point start = Clock::now();
    int job = 0;
    for (int rep = 0; rep < kMipsRepeats; ++rep) {
        for (const Prepared &p : prep) {
            for (const ooo::MachineConfig &config : configs) {
                auto source =
                    std::make_shared<trace::ReplaySource>(p.trace);
                ooo::OooCore core(config, p.program, source);
                obs::Hooks hooks;
                if (channel)
                    core.attachObs(&hooks);
                hooks.startTelemetry(channel, job++, p.program->name,
                                     "bench", -1, p.warmup + kTimedInsts);
                if (p.warmup)
                    core.warmup(p.warmup);
                ooo::OooStats stats = core.run(kTimedInsts);
                hooks.finishTelemetry(stats.instructions, stats.cycles);
                bench.guestInsts += p.warmup + stats.instructions;
                bench.guestCycles += stats.cycles;
            }
        }
    }
    bench.wallSeconds = secondsSince(start);
    bench.mips = bench.wallSeconds > 0.0
                     ? bench.guestInsts / 1e6 / bench.wallSeconds
                     : 0.0;
    bench.counters.emplace_back(
        "grid_points",
        static_cast<double>(std::size(kNames) * configs.size()));
    bench.counters.emplace_back("repeats",
                                static_cast<double>(kMipsRepeats));
    return bench;
}

/**
 * The same grid and repeats as "mips", but with a live telemetry
 * scope attached to every core (heartbeat every 20 K instructions,
 * ~5 beats per timed window).  The channel uses an injected zero
 * clock and RSS provider so every emitted byte is deterministic:
 * telemetry_records and telemetry_bytes are exact counters, and the
 * bench's MIPS against the plain "mips" bench is the telemetry
 * overhead (gated by bench_compare --telemetry-overhead-tol; the
 * budget is <1%).
 */
obs::BenchCase
benchMipsTelemetry()
{
    const std::string path = "arl_bench_telemetry.jsonl.tmp";
    std::remove(path.c_str());
    obs::TelemetryOptions opt;
    opt.intervalInsts = 20000;
    opt.clockMs = [] { return std::uint64_t(0); };
    opt.rssKb = [] { return std::uint64_t(0); };
    std::string error;
    auto channel = obs::TelemetryChannel::open(path, opt, &error);
    if (!channel)
        fatal("mips_telemetry: %s", error.c_str());

    obs::BenchCase bench = timeMipsGrid("mips_telemetry", channel.get());
    bench.counters = {
        {"telemetry_records",
         static_cast<double>(channel->recordsEmitted())},
        {"telemetry_bytes", static_cast<double>(channel->bytesWritten())}};
    channel.reset();
    std::remove(path.c_str());
    return bench;
}

obs::BenchCase
benchTraceCodec()
{
    obs::BenchCase bench;
    bench.name = "trace_codec";
    const std::string path = "arl_bench_codec.arlt.tmp";
    Clock::time_point start = Clock::now();

    auto program = workloads::buildWorkload("go_like", 1);
    auto recorded = trace::recordToMemory(program, kCodecInsts,
                                          trace::DefaultBlockRecords);
    std::uint64_t bytes = trace::saveTrace(path, *recorded);
    trace::TraceLoadStats load_stats;
    auto loaded = trace::loadTrace(path, &load_stats);
    std::remove(path.c_str());
    if (!loaded)
        fatal("trace_codec: reloading '%s' failed", path.c_str());
    if (loaded->size() != recorded->size())
        fatal("trace_codec: decode lost records (%zu != %zu)",
              loaded->size(), recorded->size());

    bench.wallSeconds = secondsSince(start);
    // One record is one guest instruction; the codec replays the
    // stream three times logically (record, encode, decode).
    bench.guestInsts = recorded->size();
    bench.mips = bench.wallSeconds > 0.0
                     ? bench.guestInsts / 1e6 / bench.wallSeconds
                     : 0.0;
    bench.counters.emplace_back("records",
                                static_cast<double>(recorded->size()));
    bench.counters.emplace_back("v2_bytes",
                                static_cast<double>(bytes));
    return bench;
}

[[noreturn]] void
badUsage(const char *message)
{
    std::fprintf(stderr, "arl_bench: %s\n", message);
    std::fprintf(stderr,
                 "usage: arl_bench [--quick] [--out F] [--quiet] "
                 "[--log-level L]\n");
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_0006.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0) {
            if (i + 1 >= argc)
                badUsage("--out needs a value");
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            setLogLevel(LogLevel::Error);
        } else if (std::strcmp(argv[i], "--log-level") == 0 &&
                   i + 1 < argc) {
            LogLevel level = LogLevel::Info;
            if (!parseLogLevel(argv[++i], level))
                badUsage("unknown log level");
            setLogLevel(level);
        } else {
            badUsage("unknown argument (see --help shape above)");
        }
    }
    if (std::getenv("ARL_UPDATE_BENCH"))
        out_path = ARL_BENCH_BASELINE;

    obs::Profiler::instance().enable();

    obs::BenchReport report;
    report.benches.push_back(timeMipsGrid("mips", nullptr));
    report.benches.push_back(benchMipsTelemetry());
    report.benches.push_back(benchReplayCore());
    report.benches.push_back(benchTraceCodec());
    report.benches.push_back(benchSampled());
    if (!quick) {
        report.benches.push_back(benchSweepFig8());
        report.benches.push_back(benchContended());
        report.benches.push_back(benchRegionFig4());
        report.benches.push_back(benchCorpus());
    }
    report.meta = obs::hostMeta();
    report.peakRssKb = obs::peakRssKb();
    obs::Profiler::Report profile = obs::Profiler::instance().report();
    obs::Profiler::instance().disable();

    if (logLevel() < LogLevel::Error) {
        for (const obs::BenchCase &bench : report.benches)
            std::printf("%-12s %8.3fs %8.2f MIPS %12llu insts "
                        "%12llu cycles\n",
                        bench.name.c_str(), bench.wallSeconds,
                        bench.mips,
                        (unsigned long long)bench.guestInsts,
                        (unsigned long long)bench.guestCycles);
        std::fputs(profile.render().c_str(), stdout);
    }

    if (out_path == "-") {
        report.writeJson(std::cout, &profile);
        return 0;
    }
    if (!report.writeJsonFile(out_path, &profile))
        return 2;
    if (logLevel() < LogLevel::Error)
        std::printf("wrote %s (%zu benches)\n", out_path.c_str(),
                    report.benches.size());
    return 0;
}
