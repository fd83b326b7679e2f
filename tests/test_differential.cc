/**
 * @file
 * Differential tests locking down the sweep engine's determinism
 * claims (src/sweep/sweep.hh):
 *
 *  1. a recorded trace replayed through trace::ReplaySource is a
 *     field-for-field substitute for the live functional stream;
 *  2. OoO timing from a replayed trace is bit-identical to timing
 *     from a live embedded functional simulator (every OooStats
 *     counter, not just cycles);
 *  3. functional simulation reaches the same architectural state
 *     whether or not a recording hook observes it;
 *  4. runSweep with jobs=1 and jobs=8 produces byte-identical
 *     stats-JSON reports;
 *  5. the trace-cache format is invisible to results: no-cache,
 *     v1-cache, and v2-cache sweeps (both cold and warm) serialize
 *     byte-identically, with v2 entries at least 4x smaller;
 *  6. checkpointed fast-forward (SweepSpec::seekFastForward) is
 *     byte-identical to functional fast-forward given the same
 *     warmup window, while actually skipping records;
 *  7. a live Experiment::timingStudy and the sweep's replayed point
 *     (both OooCore::measure) report the same stats and the same
 *     interval rows, with and without seek-ff;
 *  8. sharing one warm state per (row, MachineConfig::warmKey())
 *     across a row's timing points reports exactly what warming
 *     every point separately does, splitting the key on each warmed
 *     structure, at any --jobs, with and without seek-ff;
 *  9. the §3 region pass (sweep::RegionPass) reports the same
 *     profile, window statistics, per-scheme accuracy and stats
 *     snapshot whether it runs on a live simulator
 *     (Experiment::regionStudy), on the sweep's in-memory trace, or
 *     streams a saved trace file through trace::TraceReader.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "obs/hooks.hh"
#include "obs/report.hh"
#include "ooo/config.hh"
#include "ooo/core.hh"
#include "sim/simulator.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

/** Three workloads spanning int/FP and heap/stack behaviours. */
const char *kWorkloads[] = {"compress_like", "li_like", "tomcatv_like"};

constexpr InstCount kStreamInsts = 100000;
constexpr InstCount kTimedInsts = 30000;

void
expectStepsEqual(const sim::StepInfo &live, const sim::StepInfo &replayed,
                 InstCount index)
{
    ASSERT_EQ(live.pc, replayed.pc) << "at instruction " << index;
    ASSERT_EQ(live.seq, replayed.seq) << "at instruction " << index;
    ASSERT_EQ(live.isMem, replayed.isMem) << "at instruction " << index;
    ASSERT_EQ(live.isLoad, replayed.isLoad) << "at instruction " << index;
    ASSERT_EQ(live.effAddr, replayed.effAddr)
        << "at instruction " << index;
    ASSERT_EQ(live.memSize, replayed.memSize)
        << "at instruction " << index;
    ASSERT_EQ(live.region, replayed.region) << "at instruction " << index;
    ASSERT_EQ(live.isBranch, replayed.isBranch)
        << "at instruction " << index;
    ASSERT_EQ(live.branchTaken, replayed.branchTaken)
        << "at instruction " << index;
    ASSERT_EQ(live.isCall, replayed.isCall) << "at instruction " << index;
    ASSERT_EQ(live.isReturn, replayed.isReturn)
        << "at instruction " << index;
    ASSERT_EQ(live.gbh, replayed.gbh) << "at instruction " << index;
    ASSERT_EQ(live.cid, replayed.cid) << "at instruction " << index;
    ASSERT_EQ(live.dest, replayed.dest) << "at instruction " << index;
    ASSERT_EQ(live.result, replayed.result) << "at instruction " << index;
    ASSERT_EQ(live.storeValue, replayed.storeValue)
        << "at instruction " << index;
}

void
expectStatsEqual(const ooo::OooStats &live, const ooo::OooStats &replay)
{
    EXPECT_EQ(live.cycles, replay.cycles);
    EXPECT_EQ(live.instructions, replay.instructions);
    EXPECT_EQ(live.loads, replay.loads);
    EXPECT_EQ(live.stores, replay.stores);
    for (unsigned r = 0; r < vm::NumDataRegions; ++r)
        EXPECT_EQ(live.regionRefs[r], replay.regionRefs[r]);
    EXPECT_EQ(live.lvaqSteered, replay.lvaqSteered);
    EXPECT_EQ(live.regionMispredictions, replay.regionMispredictions);
    EXPECT_EQ(live.forwardedLoads, replay.forwardedLoads);
    EXPECT_EQ(live.fastForwardedLoads, replay.fastForwardedLoads);
    EXPECT_EQ(live.vpOffered, replay.vpOffered);
    EXPECT_EQ(live.vpWrong, replay.vpWrong);
    EXPECT_EQ(live.vpSquashes, replay.vpSquashes);
    EXPECT_EQ(live.branches, replay.branches);
    EXPECT_EQ(live.branchMispredicts, replay.branchMispredicts);
    EXPECT_EQ(live.l1Hits, replay.l1Hits);
    EXPECT_EQ(live.l1Misses, replay.l1Misses);
    EXPECT_EQ(live.lvcHits, replay.lvcHits);
    EXPECT_EQ(live.lvcMisses, replay.lvcMisses);
    EXPECT_EQ(live.l2Hits, replay.l2Hits);
    EXPECT_EQ(live.l2Misses, replay.l2Misses);
    EXPECT_EQ(live.tlbMisses, replay.tlbMisses);
    EXPECT_EQ(live.robFullStalls, replay.robFullStalls);
    EXPECT_EQ(live.queueFullStalls, replay.queueFullStalls);
}

std::string
reportJson(const sweep::SweepResult &result)
{
    std::ostringstream os;
    result.toReport().writeJson(os);
    return os.str();
}

} // namespace

TEST(Differential, ReplayStreamMatchesLiveSimulation)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        auto program = workloads::buildWorkload(name, 1);
        auto trace = trace::recordToMemory(program, kStreamInsts);
        ASSERT_GT(trace->size(), 0u);

        sim::Simulator live(program);
        trace::ReplaySource replay(trace);
        sim::StepInfo live_step, replayed_step;
        InstCount compared = 0;
        while (replay.next(replayed_step)) {
            ASSERT_TRUE(live.step(live_step));
            expectStepsEqual(live_step, replayed_step, compared);
            ++compared;
        }
        EXPECT_EQ(compared, trace->size());
        EXPECT_TRUE(replay.exhausted());
    }
}

TEST(Differential, OooTimingIdenticalLiveVsReplay)
{
    std::vector<ooo::MachineConfig> configs = {
        ooo::MachineConfig::nPlusM(2, 0), ooo::MachineConfig::nPlusM(3, 3)};
    for (const char *name : kWorkloads) {
        const auto &info = workloads::workloadByName(name);
        auto program = workloads::buildWorkload(name, 1);
        auto trace = trace::recordToMemory(
            program, info.warmupInsts + kTimedInsts);
        for (const auto &config : configs) {
            SCOPED_TRACE(std::string(name) + " " + config.name);

            ooo::OooCore live_core(config, program);
            if (info.warmupInsts)
                live_core.warmup(info.warmupInsts);
            ooo::OooStats live_stats = live_core.run(kTimedInsts);

            ooo::OooCore replay_core(
                config, program,
                std::make_shared<trace::ReplaySource>(trace));
            if (info.warmupInsts)
                replay_core.warmup(info.warmupInsts);
            ooo::OooStats replay_stats = replay_core.run(kTimedInsts);

            expectStatsEqual(live_stats, replay_stats);
        }
    }
}

TEST(Differential, RecordingDoesNotPerturbArchitecturalState)
{
    for (const char *name : kWorkloads) {
        SCOPED_TRACE(name);
        auto program = workloads::buildWorkload(name, 1);

        sim::Simulator plain(program);
        plain.run(kStreamInsts);

        // Same budget, but every step observed by a recording hook.
        sim::Simulator recorded(program);
        auto trace = std::make_shared<trace::InMemoryTrace>();
        recorded.run(kStreamInsts, [&](const sim::StepInfo &step) {
            trace->records.push_back(trace::toRecord(step));
        });

        EXPECT_EQ(plain.instCount(), recorded.instCount());
        EXPECT_EQ(plain.process().pc, recorded.process().pc);
        EXPECT_EQ(plain.process().gpr, recorded.process().gpr);
        EXPECT_EQ(plain.process().fpr, recorded.process().fpr);
        EXPECT_EQ(plain.process().halted, recorded.process().halted);
        EXPECT_EQ(plain.process().exitCode,
                  recorded.process().exitCode);
        EXPECT_EQ(plain.process().output, recorded.process().output);
        EXPECT_EQ(plain.process().heap.bytesInUse(),
                  recorded.process().heap.bytesInUse());
    }
}

TEST(Differential, SweepReportByteIdenticalAcrossJobs)
{
    sweep::SweepSpec spec;
    for (const char *name : kWorkloads) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = kTimedInsts;
        w.studyInsts = kStreamInsts;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 3)};
    spec.schemes = core::figure4Schemes();

    spec.jobs = 1;
    std::string serial = reportJson(sweep::runSweep(spec));
    // More workers than grid rows, so several land on shared traces
    // concurrently no matter how the pool schedules them.
    spec.jobs = 8;
    std::string parallel = reportJson(sweep::runSweep(spec));

    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

namespace
{

/** The fig8 small grid the golden test also pins. */
sweep::SweepSpec
fig8SmallSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = 20000;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = {ooo::MachineConfig::nPlusM(2, 0),
                    ooo::MachineConfig::nPlusM(3, 3),
                    ooo::MachineConfig::nPlusM(16, 0)};
    spec.jobs = 2;
    return spec;
}

/** Scoped temp directory for cache-backed sweeps. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const std::string &tag)
        : dir(::testing::TempDir() + "arl_diff_" + tag)
    {
        std::filesystem::remove_all(dir);
    }
    ~TempCacheDir() { std::filesystem::remove_all(dir); }

    const std::string dir;
};

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        total += std::filesystem::file_size(entry.path());
    return total;
}

} // namespace

TEST(Differential, SweepReportIdenticalAcrossCacheFormats)
{
    // Reference: no cache at all.
    sweep::SweepSpec spec = fig8SmallSpec();
    std::string baseline = reportJson(sweep::runSweep(spec));
    ASSERT_FALSE(baseline.empty());

    TempCacheDir cache("cache_v2");
    sweep::SweepSpec cached = fig8SmallSpec();
    cached.traceCacheDir = cache.dir;

    // Cold pass records the cache entries; warm pass replays from
    // them.  Both must match the cache-less report.
    sweep::SweepResult cold = sweep::runSweep(cached);
    EXPECT_EQ(cold.traceCacheMisses, 2u);
    EXPECT_EQ(reportJson(cold), baseline);
    sweep::SweepResult warm = sweep::runSweep(cached);
    EXPECT_EQ(warm.traceCacheHits, 2u);
    EXPECT_EQ(reportJson(warm), baseline);

    // The headline claim: the cache is at least 4x smaller than the
    // raw 32-byte records on the same fig8 small grid.
    const std::uint64_t v2_bytes = directoryBytes(cache.dir);
    ASSERT_GT(v2_bytes, 0u);
    EXPECT_GE(cold.traceV1EquivBytes, 4 * v2_bytes)
        << "v2 compression regressed: raw " << cold.traceV1EquivBytes
        << "B vs v2 " << v2_bytes << "B";
}

TEST(Differential, SeekFastForwardIdenticalToFunctional)
{
    // A checkpoint cadence well below the workload warmups (10000 /
    // 5000) so seeking genuinely skips a prefix.
    constexpr InstCount kEvery = 1024;
    constexpr InstCount kWindow = 2048;

    sweep::SweepSpec functional = fig8SmallSpec();
    functional.checkpointEvery = kEvery;
    for (auto &w : functional.workloads)
        w.warmupWindow = kWindow;

    sweep::SweepSpec seeking = functional;
    seeking.seekFastForward = true;

    TempCacheDir cache("seekff");
    functional.traceCacheDir = cache.dir;
    seeking.traceCacheDir = cache.dir;

    // In-memory traces (no cache) and cache-backed runs must all
    // agree; the seeking runs must actually skip records.
    sweep::SweepSpec functional_mem = functional;
    functional_mem.traceCacheDir.clear();
    std::string baseline = reportJson(sweep::runSweep(functional_mem));
    ASSERT_FALSE(baseline.empty());

    sweep::SweepResult cold_seek = sweep::runSweep(seeking);
    EXPECT_EQ(reportJson(cold_seek), baseline);
    EXPECT_GT(cold_seek.seekSkippedRecords, 0u);

    sweep::SweepResult warm_func = sweep::runSweep(functional);
    EXPECT_EQ(reportJson(warm_func), baseline);
    EXPECT_EQ(warm_func.seekSkippedRecords, 0u);

    sweep::SweepResult warm_seek = sweep::runSweep(seeking);
    EXPECT_EQ(reportJson(warm_seek), baseline);
    EXPECT_GT(warm_seek.seekSkippedRecords, 0u);

    // Sanity on the skip arithmetic: every timing job's skip lands
    // on a checkpoint boundary at or below warmup - window.
    EXPECT_EQ(warm_seek.seekSkippedRecords % kEvery, 0u);
}

TEST(Differential, TimingStudyMatchesSweepPointIntervals)
{
    constexpr InstCount kEvery = 1024;
    constexpr InstCount kWindow = 2048;
    sweep::SweepSpec spec = fig8SmallSpec();
    spec.intervalEvery = 5000;
    spec.checkpointEvery = kEvery;
    for (auto &w : spec.workloads)
        w.warmupWindow = kWindow;
    sweep::SweepResult functional = sweep::runSweep(spec);
    spec.seekFastForward = true;
    sweep::SweepResult seeking = sweep::runSweep(spec);
    EXPECT_GT(seeking.seekSkippedRecords, 0u);
    EXPECT_EQ(reportJson(seeking), reportJson(functional));

    // The live facade's records, in the sweep's workload-major
    // order, serialize exactly like the sweep's timing runs.
    obs::Report live;
    live.command = "sweep";
    for (const sweep::WorkloadSpec &w : spec.workloads) {
        core::Experiment experiment(workloads::buildWorkload(w.name, 1));
        for (const ooo::MachineConfig &config : spec.configs) {
            obs::Hooks hooks;
            hooks.intervalEvery = spec.intervalEvery;
            experiment.timingStudy(config, w.warmup, w.timed, &hooks,
                                   nullptr, w.warmupWindow);
            live.runs.push_back(
                obs::RunRecord::fromHooks(w.name, config.name, hooks));
        }
    }
    obs::Report swept = functional.toReport();
    swept.runs.pop_back();  // the grid summary
    for (const obs::RunRecord &run : swept.runs)
        EXPECT_EQ(run.intervals.every, spec.intervalEvery);
    std::ostringstream live_json, swept_json;
    live.writeJson(live_json);
    swept.writeJson(swept_json);
    EXPECT_EQ(live_json.str(), swept_json.str());
}

namespace
{

/**
 * Configs covering MachineConfig::warmKey(): the Fig. 8 suite (two
 * keys, many port/latency variants sharing each), the contention
 * knobs (sharing those keys), and one split per warmed structure
 * (VP and gshare switches, L1/LVC/L2 geometry, TLB, ARPT, VP and
 * gshare sizes).  Each split comes as two port variants of one key,
 * so every key has a config that adopts the state another one built.
 * The small L1/L2 splits evict constantly, so LRU order matters.
 */
std::vector<ooo::MachineConfig>
warmKeyGrid()
{
    std::vector<ooo::MachineConfig> configs =
        ooo::MachineConfig::figure8Suite();
    ooo::ContentionKnobs knobs;
    knobs.banks = 4;
    knobs.mshrs = 8;
    knobs.wbBuffer = 4;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    for (auto [d, l] : {std::pair{2u, 0u}, std::pair{3u, 3u}}) {
        ooo::MachineConfig contended = ooo::MachineConfig::nPlusM(d, l);
        contended.applyContention(knobs);
        configs.push_back(contended);
    }
    auto split = [&](bool decoupled, const char *tag, auto &&edit) {
        for (unsigned ports : {2u, 3u}) {
            ooo::MachineConfig config = ooo::MachineConfig::nPlusM(
                ports, decoupled ? ports : 0);
            config.name += tag;
            edit(config);
            configs.push_back(config);
        }
    };
    for (bool decoupled : {false, true}) {
        split(decoupled, "/novp",
              [](auto &c) { c.valuePrediction = false; });
        split(decoupled, "/gshare",
              [](auto &c) { c.perfectBranchPrediction = false; });
    }
    split(true, "/l1", [](auto &c) {
        c.hierarchy.l1 = {"L1D", 4 * 1024, 32, 4};
    });
    split(true, "/lvc", [](auto &c) {
        c.hierarchy.lvc = {"LVC", 8 * 1024, 32, 2};
    });
    split(false, "/l2", [](auto &c) {
        c.hierarchy.l2 = {"L2", 16 * 1024, 32, 8};
    });
    split(true, "/tlb", [](auto &c) { c.tlbEntries = 16; });
    split(true, "/arpt", [](auto &c) { c.arpt.entries = 1024; });
    split(true, "/vp", [](auto &c) { c.vpEntries = 1024; });
    split(false, "/bp", [](auto &c) {
        c.perfectBranchPrediction = false;
        c.bpEntries = 1024;
    });
    return configs;
}

} // namespace

TEST(Differential, SharedWarmStateMatchesPerPointWarmup)
{
    constexpr InstCount kEvery = 1024;
    constexpr InstCount kWindow = 2048;
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "tomcatv_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.warmup = info.warmupInsts;
        w.timed = 4000;
        spec.workloads.push_back(std::move(w));
    }
    spec.configs = warmKeyGrid();
    spec.checkpointEvery = kEvery;
    std::set<std::string> keys;
    for (const ooo::MachineConfig &config : spec.configs)
        keys.insert(config.warmKey());
    // Figure 8's two keys plus one per split variant.
    ASSERT_EQ(keys.size(), 2u + 11u);

    for (InstCount window : {InstCount{0}, kWindow}) {
        // Per-point warmup: one live timingStudy per config, in the
        // sweep's workload-major order.
        obs::Report live;
        live.command = "sweep";
        for (const sweep::WorkloadSpec &w : spec.workloads) {
            core::Experiment experiment(workloads::buildWorkload(w.name, 1));
            for (const ooo::MachineConfig &config : spec.configs) {
                obs::Hooks hooks;
                experiment.timingStudy(config, w.warmup, w.timed, &hooks,
                                       nullptr, window);
                live.runs.push_back(
                    obs::RunRecord::fromHooks(w.name, config.name, hooks));
            }
        }
        std::ostringstream live_json;
        live.writeJson(live_json);

        for (auto &w : spec.workloads)
            w.warmupWindow = window;
        spec.seekFastForward = window != 0;
        for (unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE("window " + std::to_string(window) + ", jobs " +
                         std::to_string(jobs));
            spec.jobs = jobs;
            sweep::SweepResult result = sweep::runSweep(spec);
            EXPECT_EQ(result.warmStatesBuilt,
                      spec.workloads.size() * keys.size());
            EXPECT_EQ(result.seekSkippedRecords > 0, window != 0);
            obs::Report swept = result.toReport();
            swept.runs.pop_back();  // the grid summary
            std::ostringstream swept_json;
            swept.writeJson(swept_json);
            EXPECT_EQ(swept_json.str(), live_json.str());
        }
    }
}

namespace
{

/** Field-for-field equality of two region-pass points. */
void
expectRegionPointsEqual(const sweep::RegionPoint &a,
                        const sweep::RegionPoint &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.profile.staticCounts, b.profile.staticCounts);
    EXPECT_EQ(a.profile.dynamicCounts, b.profile.dynamicCounts);
    EXPECT_EQ(a.profile.regionRefs, b.profile.regionRefs);
    EXPECT_EQ(a.profile.totalInstructions, b.profile.totalInstructions);
    EXPECT_EQ(a.profile.dynamicLoads, b.profile.dynamicLoads);
    EXPECT_EQ(a.profile.dynamicStores, b.profile.dynamicStores);
    for (auto window : {&sweep::RegionPoint::window32,
                        &sweep::RegionPoint::window64}) {
        const profile::WindowStats &x = a.*window, &y = b.*window;
        SCOPED_TRACE("window " + std::to_string(x.windowSize));
        EXPECT_EQ(x.windowSize, y.windowSize);
        EXPECT_EQ(x.mean, y.mean);
        EXPECT_EQ(x.stddev, y.stddev);
        EXPECT_EQ(x.samples, y.samples);
    }
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t i = 0; i < a.schemes.size(); ++i) {
        const auto &[name, x] = a.schemes[i];
        const predict::PredictorReport &y = b.schemes[i].second;
        SCOPED_TRACE(name);
        EXPECT_EQ(name, b.schemes[i].first);
        EXPECT_EQ(x.total, y.total);
        EXPECT_EQ(x.correct, y.correct);
        EXPECT_EQ(x.totalBySource, y.totalBySource);
        EXPECT_EQ(x.correctBySource, y.correctBySource);
        EXPECT_EQ(x.arptOccupancy, y.arptOccupancy);
    }
    EXPECT_EQ(a.snapshot, b.snapshot);
}

} // namespace

TEST(Differential, RegionPassIdenticalLiveReplayedAndStreamed)
{
    constexpr InstCount kStudy = 100000;
    // The Figure-4 schemes plus a finite table (index aliasing).
    std::vector<sweep::SchemeSpec> schemes = core::figure4Schemes();
    sweep::SchemeSpec finite = schemes.back();
    finite.name = "HYBRID-4K";
    finite.config.arpt.entries = 4096;
    finite.config.arpt.context.cidBits = 4;
    schemes.push_back(finite);

    TempCacheDir dir("region_pass");
    std::filesystem::create_directories(dir.dir);
    for (const char *name : {"li_like", "tomcatv_like"}) {
        SCOPED_TRACE(name);
        auto program = workloads::buildWorkload(name, 1);
        sweep::RegionPoint live =
            core::Experiment(program).regionStudy(schemes, false, kStudy);

        sweep::SweepSpec spec;
        sweep::WorkloadSpec w;
        w.name = name;
        w.studyInsts = kStudy;
        spec.workloads.push_back(std::move(w));
        spec.schemes = schemes;
        sweep::SweepResult swept = sweep::runSweep(spec);
        ASSERT_EQ(swept.region.size(), 1u);

        const std::string path = dir.dir + "/" + name + ".arlt";
        ASSERT_EQ(trace::recordTrace(program, path, kStudy), kStudy);
        trace::TraceReader reader(path);
        obs::Hooks hooks;
        sweep::RegionPoint streamed =
            sweep::RegionPass(schemes, hooks).run(reader, 0);

        // Not vacuous: the pass saw the whole window, memory
        // references, both heap and stack, and filled its snapshot.
        EXPECT_EQ(live.instructions, kStudy);
        EXPECT_GT(live.profile.regionRefs[1], 0u);
        EXPECT_GT(live.profile.regionRefs[2], 0u);
        EXPECT_EQ(live.snapshot.size(), 6u + 6u + 2u * schemes.size());
        expectRegionPointsEqual(live, swept.region[0]);
        expectRegionPointsEqual(live, streamed);
    }
}
