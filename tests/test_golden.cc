/**
 * @file
 * Golden-report regression test: a small fixed-scale Figure-8 sweep
 * and a small region-study sweep must serialize to exactly the
 * committed JSON in tests/golden/, and three pinned OoO pipetraces
 * must keep their per-event summaries (CRC32, line count, per-kind
 * counts).
 *
 * Catches silent drift anywhere in the stack — workload builders,
 * the functional simulator, trace record/replay, the OoO timing
 * model, the stats registry, and the JSON serializer all feed into
 * the compared bytes.
 *
 * When a behaviour change is intentional, regenerate the file and
 * commit it alongside the change:
 *
 *     ARL_UPDATE_GOLDEN=1 ./tests/test_golden
 *
 * (writes into the source tree's tests/golden/, then still fails so
 * the refreshed file is reviewed before the suite goes green).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "builder/program_builder.hh"
#include "common/crc32.hh"
#include "core/experiment.hh"
#include "obs/hooks.hh"
#include "obs/pipetrace.hh"
#include "obs/report.hh"
#include "ooo/config.hh"
#include "ooo/core.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace
{

constexpr const char *kGoldenFile = "sweep_fig8_small.json";
constexpr const char *kGoldenSeekFile = "sweep_fig8_v2_seekff.json";
constexpr const char *kGoldenContendedFile = "sweep_fig8_contended.json";
constexpr const char *kTraceFixture = "trace_v2_fixture.arlt";
constexpr const char *kPipeEventsFile = "pipetrace_events.txt";
constexpr const char *kGoldenRegionFile = "sweep_region_small.json";

/** The pinned grid: two int workloads × three Fig-8 configs. */
sweep::SweepSpec
goldenSpec()
{
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like"}) {
        const auto &info = workloads::workloadByName(name);
        sweep::WorkloadSpec w;
        w.name = info.name;
        w.scale = 1;
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

std::string
goldenPath(const char *file)
{
    return std::string(ARL_GOLDEN_DIR) + "/" + file;
}

/**
 * Compare @p actual against the committed golden @p file byte for
 * byte, regenerating it (and failing for review) under
 * ARL_UPDATE_GOLDEN=1.
 */
void
expectMatchesGolden(const std::string &actual, const char *file)
{
    ASSERT_FALSE(actual.empty());
    const std::string path = goldenPath(file);

    if (std::getenv("ARL_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        out.close();
        FAIL() << "golden file regenerated at " << path
               << "; rerun without ARL_UPDATE_GOLDEN and commit it";
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing " << path
                    << " — generate it with ARL_UPDATE_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();

    // Byte-for-byte: both the report schema and the v2 trace
    // encoding are deterministic by contract.
    EXPECT_EQ(expected.str(), actual)
        << "output drifted from the committed golden file " << file
        << "; if intentional, regenerate with ARL_UPDATE_GOLDEN=1";
}

/**
 * A tiny, fully self-contained program for the encoding fixture:
 * two passes over a 64-word buffer with data-dependent branches.
 * Deliberately independent of the workload registry so the fixture
 * only moves when the ISA, builder, simulator, or v2 codec change.
 */
std::shared_ptr<const vm::Program>
fixtureProgram()
{
    builder::ProgramBuilder b("v2_fixture");
    b.globalArray("buf", 64);
    b.bindHere("main");

    // Pass 1: buf[i] = i * 3 + 1.
    b.li(8, 0);                     // $t0 = i
    b.li(9, 0);                     // $t1 = value accumulator
    builder::Label fill = b.label();
    b.bind(fill);
    b.la(25, "buf");
    b.sll(10, 8, 2);                // $t2 = i * 4
    b.add(10, 10, 25);
    b.addi(9, 9, 3);
    b.sw(9, 0, 10);
    b.addi(8, 8, 1);
    b.slti(11, 8, 64);
    b.bgtz(11, fill);

    // Pass 2: sum the buffer, branching on low bits.
    b.li(8, 0);
    b.li(12, 0);                    // $t4 = sum
    builder::Label sum = b.label();
    b.bind(sum);
    b.la(25, "buf");
    b.sll(10, 8, 2);
    b.add(10, 10, 25);
    b.lw(13, 0, 10);                // $t5 = buf[i]
    b.andi(14, 13, 1);
    builder::Label even = b.label();
    b.blez(14, even);
    b.add(12, 12, 13);
    b.bind(even);
    b.addi(8, 8, 1);
    b.slti(11, 8, 64);
    b.bgtz(11, sum);
    b.exit_(0);
    return b.finish();
}

/** One pinned pipetrace: a workload timed on one machine config. */
struct PipeCase
{
    const char *label;
    const char *workload;
    ooo::MachineConfig config;
};

/** Timed instructions per pinned pipetrace (after the warmup). */
constexpr InstCount kPipeTimedInsts = 20000;

/**
 * Time @p c with a PipeTracer attached and summarise the event
 * stream: its CRC32, line count, and per-event-kind counts.  The
 * CRC pins every event's cycle, order, and detail, so a reordering
 * of same-cycle events fails here even when end-of-run stats agree.
 */
std::string
pipeTraceSummary(const PipeCase &c)
{
    const auto &info = workloads::workloadByName(c.workload);
    ooo::OooCore core(c.config, info.build(1));
    std::ostringstream text;
    obs::Hooks hooks;
    hooks.tracer = std::make_unique<obs::PipeTracer>(text);
    core.attachObs(&hooks);
    if (info.warmupInsts)
        core.warmup(info.warmupInsts);
    core.run(kPipeTimedInsts);
    hooks.finalize();

    const std::string trace = text.str();
    std::uint64_t lines = 0;
    std::map<std::string, std::uint64_t> kinds;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
        ++lines;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string cycle, seq, pc, kind;
        fields >> cycle >> seq >> pc >> kind;
        ++kinds[kind];
    }

    char crc[16];
    std::snprintf(crc, sizeof(crc), "0x%08x",
                  crc32(trace.data(), trace.size()));
    std::ostringstream out;
    out << "case " << c.label << "\n"
        << "crc32 " << crc << "\n"
        << "lines " << lines << "\n";
    for (unsigned ev = 0;
         ev <= static_cast<unsigned>(obs::PipeEvent::Commit); ++ev) {
        std::string name =
            obs::pipeEventName(static_cast<obs::PipeEvent>(ev));
        name.erase(name.find_last_not_of(' ') + 1);
        out << name << " " << kinds[name] << "\n";
    }
    return out.str();
}

/** Count of event kind @p name in a pipeTraceSummary() block. */
std::uint64_t
summaryCount(const std::string &summary, const std::string &name)
{
    std::istringstream in(summary);
    std::string key;
    std::string value;
    while (in >> key >> value)
        if (key == name)
            return std::stoull(value);
    return 0;
}

} // namespace

TEST(Golden, PipeTraceEventStreamsPinned)
{
    // Three cases chosen to stress the scheduler's event ordering:
    // value-prediction squashes and store forwarding on the ideal
    // backend; the contended backend with TLB walks; and a 16-entry
    // window with a gshare front end, where ring slots are reused
    // every few cycles.
    ooo::MachineConfig contended = ooo::MachineConfig::nPlusM(2, 2);
    ooo::ContentionKnobs knobs;
    knobs.banks = 4;
    knobs.mshrs = 8;
    knobs.tlbMissLatency = 30;
    contended.applyContention(knobs);

    ooo::MachineConfig small = ooo::MachineConfig::nPlusM(2, 2);
    small.robSize = 16;
    small.issueWidth = 2;
    small.lsqSizeDecoupled = 4;
    small.lvaqSize = 4;
    small.perfectBranchPrediction = false;

    const PipeCase cases[] = {
        {"li_like_2p2_ideal", "li_like", ooo::MachineConfig::nPlusM(2, 2)},
        {"vortex_like_2p2_b4m8t30", "vortex_like", contended},
        {"m88ksim_like_small_window_gshare", "m88ksim_like", small},
    };

    std::string actual;
    std::vector<std::string> summaries;
    for (const PipeCase &c : cases) {
        summaries.push_back(pipeTraceSummary(c));
        actual += summaries.back();
    }

    // Each case must exercise what it was chosen for, else the
    // golden would pin a vacuous stream.
    EXPECT_GT(summaryCount(summaries[0], "SQH"), 0u);
    EXPECT_GT(summaryCount(summaries[0], "FWD"), 0u);
    EXPECT_GT(summaryCount(summaries[1], "MEM"), 0u);
    EXPECT_GT(summaryCount(summaries[1], "TLB"), 0u);
    EXPECT_GT(summaryCount(summaries[2], "FWD"), 0u);
    EXPECT_GT(summaryCount(summaries[2], "SQH"), 0u);

    expectMatchesGolden(actual, kPipeEventsFile);
}

TEST(Golden, Fig8SmallSweepReport)
{
    std::ostringstream actual;
    sweep::runSweep(goldenSpec()).toReport().writeJson(actual);
    expectMatchesGolden(actual.str(), kGoldenFile);
}

TEST(Golden, RegionSmallSweepReport)
{
    // The §3 region study as a region-only sweep: three int
    // workloads × the Figure-4 schemes plus a finite 32K-entry
    // 1-bit hybrid ARPT, each pass capped at 100k instructions.
    // Pins the region profiler, both window profilers, every
    // predictor and the profile.* stats mirror.
    sweep::SweepSpec spec;
    for (const char *name : {"go_like", "li_like", "vortex_like"}) {
        sweep::WorkloadSpec w;
        w.name = name;
        w.scale = 1;
        w.studyInsts = 100000;
        spec.workloads.push_back(std::move(w));
    }
    spec.schemes = core::figure4Schemes();
    sweep::SchemeSpec hybrid{"HYBRID-32K", {}};
    hybrid.config.arpt.entries = 32 * 1024;
    hybrid.config.arpt.counterBits = 1;
    hybrid.config.arpt.context.kind = predict::ContextKind::Hybrid;
    hybrid.config.arpt.context.gbhBits = 8;
    hybrid.config.arpt.context.cidBits = 7;
    spec.schemes.push_back(hybrid);
    spec.jobs = 2;

    std::ostringstream actual;
    sweep::runSweep(spec).toReport().writeJson(actual);
    expectMatchesGolden(actual.str(), kGoldenRegionFile);
}

TEST(Golden, Fig8V2SeekFastForwardSweepReport)
{
    // The same grid rerun through the v2 + checkpointed-fast-forward
    // path: small checkpoint blocks so the 10000/5000-instruction
    // warmups really seek, and a bounded warmup window (the
    // precondition for seek-ff bit-identity).  Pins the full stack:
    // v2 encode/decode, checkpoint capture, ReplaySource::seekTo,
    // and bounded warming.
    sweep::SweepSpec spec = goldenSpec();
    spec.seekFastForward = true;
    spec.checkpointEvery = 1024;
    for (auto &w : spec.workloads)
        w.warmupWindow = 2048;

    sweep::SweepResult result = sweep::runSweep(spec);
    EXPECT_GT(result.seekSkippedRecords, 0u)
        << "seek-ff did not skip anything — golden is not "
           "exercising the checkpoint path";
    std::ostringstream actual;
    result.toReport().writeJson(actual);
    expectMatchesGolden(actual.str(), kGoldenSeekFile);
}

TEST(Golden, Fig8ContendedSweepReport)
{
    // The same two workloads through the contended memory backend:
    // banked first-level structures, bounded MSHRs, a finite
    // writeback buffer, a metered L2/memory bus, and a TLB-miss
    // penalty.  The hierarchy is shrunk so the 20k-instruction timed
    // window genuinely misses — with the Table-4 geometry a warmed
    // window has no L1 misses and the backpressure paths would idle.
    sweep::SweepSpec spec = goldenSpec();
    spec.configs = {ooo::MachineConfig::nPlusM(4, 0, 3),
                    ooo::MachineConfig::nPlusM(3, 1)};
    ooo::ContentionKnobs knobs;
    knobs.banks = 2;
    knobs.mshrs = 4;
    knobs.wbBuffer = 2;
    knobs.busCycles = 2;
    knobs.tlbMissLatency = 30;
    for (auto &config : spec.configs) {
        config.hierarchy.l1 = cache::CacheGeometry{"L1D", 2048, 32, 2};
        config.hierarchy.lvc = cache::CacheGeometry{"LVC", 512, 32, 1};
        config.hierarchy.l2 = cache::CacheGeometry{"L2", 8192, 64, 4};
        // A single TLB entry: the timed window's handful of hot
        // pages (stack + globals) alternate, so the §4.3 walk
        // penalty is genuinely charged.  The Table-4 64-entry TLB
        // never misses once warmed at this scale.
        config.tlbEntries = 1;
        config.applyContention(knobs);
    }

    // The contended path must stay jobs-deterministic: per-core
    // contention state and a fixed merge order mean worker count
    // can never leak into the report bytes.
    spec.jobs = 1;
    std::ostringstream serial;
    obs::Report report = sweep::runSweep(spec).toReport();
    report.writeJson(serial);
    spec.jobs = 8;
    std::ostringstream parallel;
    sweep::runSweep(spec).toReport().writeJson(parallel);
    EXPECT_EQ(serial.str(), parallel.str())
        << "contended sweep output depends on worker count";

    auto stat = [](const obs::RunRecord &run,
                   const std::string &name) {
        for (const auto &kv : run.stats)
            if (kv.first == name)
                return kv.second;
        ADD_FAILURE() << "stat " << name << " missing from "
                      << run.workload << " / " << run.config;
        return 0.0;
    };

    // Every modelled structure must actually see pressure, else the
    // golden would pin a vacuous configuration.
    double mshr_allocs = 0, wb_enqueued = 0, bus_busy = 0,
           tlb_cycles = 0, bank_conflicts = 0;
    for (const auto &run : report.runs) {
        if (run.config == "summary")
            continue;  // aggregate row: no per-structure stats
        mshr_allocs += stat(run, "cache.l1.mshr.allocations");
        wb_enqueued += stat(run, "cache.wb.enqueued");
        bus_busy += stat(run, "cache.bus.busy_cycles");
        tlb_cycles += stat(run, "cache.tlb.miss_cycles");
        bank_conflicts += stat(run, "cache.l1.bank_conflicts");
    }
    EXPECT_GT(mshr_allocs, 0.0);
    EXPECT_GT(wb_enqueued, 0.0);
    EXPECT_GT(bus_busy, 0.0);
    EXPECT_GT(tlb_cycles, 0.0);
    EXPECT_GT(bank_conflicts, 0.0);

    // Figure 8's headline under contention: the decoupled (3+1)
    // design beats the wider conventional (4+0) on both programs.
    for (const char *workload : {"go_like", "li_like"}) {
        double wide = 0, decoupled = 0;
        for (const auto &run : report.runs) {
            if (run.workload != workload)
                continue;
            if (run.config.rfind("(4+0)", 0) == 0)
                wide = stat(run, "ooo.cycles");
            else if (run.config.rfind("(3+1)", 0) == 0)
                decoupled = stat(run, "ooo.cycles");
        }
        EXPECT_LT(decoupled, wide) << workload;
    }

    // The CPI stack accounts for every cycle of every contended job:
    // the non-total leaves sum exactly to ooo.cycles.
    for (const auto &run : report.runs) {
        if (run.config == "summary")
            continue;
        double leaf_sum = 0.0;
        for (const auto &kv : run.stats)
            if (kv.first.rfind("ooo.cpi_stack.", 0) == 0 &&
                kv.first != "ooo.cpi_stack.total")
                leaf_sum += kv.second;
        const double cycles = stat(run, "ooo.cycles");
        EXPECT_EQ(leaf_sum, cycles)
            << run.workload << " / " << run.config;
        EXPECT_EQ(stat(run, "ooo.cpi_stack.total"), cycles)
            << run.workload << " / " << run.config;
    }

    // And it localizes the paper's claim: the wider conventional
    // (4+0) loses strictly more cycles to dcache-port contention +
    // bank conflicts than the decoupled (3+1) on every workload.
    for (const char *workload : {"go_like", "li_like"}) {
        double wide = 0, decoupled = 0;
        for (const auto &run : report.runs) {
            if (run.workload != workload)
                continue;
            const double port_and_banks =
                stat(run, "ooo.cpi_stack.dcache_port") +
                stat(run, "ooo.cpi_stack.bank_conflict.dcache") +
                stat(run, "ooo.cpi_stack.bank_conflict.lvc");
            if (run.config.rfind("(4+0)", 0) == 0)
                wide = port_and_banks;
            else if (run.config.rfind("(3+1)", 0) == 0)
                decoupled = port_and_banks;
        }
        EXPECT_GT(wide, decoupled) << workload;
    }

    expectMatchesGolden(serial.str(), kGoldenContendedFile);
}

TEST(Golden, IdealGoldensCarryNoCpiStackKeys)
{
    // CPI-stack / histogram keys register only when contention or
    // the explicit cpiStack knob is on — the ideal goldens must stay
    // byte-identical, which starts with not containing the keys.
    for (const char *file : {kGoldenFile, kGoldenSeekFile}) {
        std::ifstream in(goldenPath(file));
        ASSERT_TRUE(in) << goldenPath(file);
        std::ostringstream text;
        text << in.rdbuf();
        EXPECT_EQ(text.str().find("cpi_stack"), std::string::npos)
            << file;
        EXPECT_EQ(text.str().find("load_to_use"), std::string::npos)
            << file;
    }
}

TEST(Golden, V2TraceFixtureEncodingPinned)
{
    // Record the fixture program with tiny blocks (several block
    // boundaries + index entries in a ~1KB file) and pin the exact
    // on-disk bytes.  Any codec change — tags, varint layout, CRC,
    // index, trailer — shows up as a byte diff here before it can
    // silently invalidate cached traces in the wild.
    const std::string tmp = ::testing::TempDir() + "arl_v2_fixture.arlt";
    InstCount n = trace::recordTrace(fixtureProgram(), tmp, 0, 256);
    ASSERT_GT(n, 500u);

    std::ifstream in(tmp, std::ios::binary);
    ASSERT_TRUE(in);
    std::string actual((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    in.close();
    std::remove(tmp.c_str());

    expectMatchesGolden(actual, kTraceFixture);
    if (::testing::Test::HasFailure())
        return; // missing/regenerated fixture: nothing to decode

    // And the committed fixture itself must still decode: guards
    // against a reader change that would orphan existing files.
    trace::TraceReader reader(goldenPath(kTraceFixture));
    EXPECT_EQ(reader.programName(), "v2_fixture");
    sim::StepInfo step;
    InstCount decoded = 0;
    while (reader.next(step))
        ++decoded;
    EXPECT_EQ(decoded, n);
}
