/**
 * @file
 * Telemetry channel, scope, and flight-recorder tests:
 *
 *  - deterministic heartbeat/rate math with an injected clock and RSS
 *    provider (no wall-clock dependence);
 *  - the stats-fence epoch guard (a counter reset re-bases instead of
 *    underflowing the next delta);
 *  - crash durability: a forked child dies from SIGSEGV (and, in a
 *    second test, from an ARL_ASSERT-style abort) mid-stream, and the
 *    parent verifies every completed record survived plus a parseable
 *    black-box postamble that replays the ring in order;
 *  - the IntervalSampler streaming sink (O(1) memory, CSV rows);
 *  - the interval clock: a sampler and a telemetry scope driven by
 *    one OooCore through one threshold emit exactly the bytes each
 *    emits alone, and runSample's detailed warmup gets no heartbeat.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/hooks.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"
#include "ooo/config.hh"
#include "ooo/core.hh"
#include "workloads/workloads.hh"

using namespace arl;
using obs::IntervalClock;
using obs::TelemetryChannel;
using obs::TelemetryFrame;
using obs::TelemetryOptions;
using obs::TelemetryScope;

namespace
{

std::string
tmpPath(const char *stem)
{
    return testing::TempDir() + "arl_telemetry_" + stem + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Parse one JSONL line, failing the test with context on error. */
obs::JsonValue
parseLine(const std::string &line)
{
    obs::JsonValue v;
    std::string err;
    EXPECT_TRUE(obs::jsonParse(line, v, &err))
        << "unparseable telemetry line: " << line << " (" << err << ")";
    return v;
}

double
numField(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing field " << key;
    EXPECT_TRUE(f && f->isNumber()) << "non-numeric field " << key;
    return f && f->isNumber() ? f->number : 0.0;
}

std::string
strField(const obs::JsonValue &v, const char *key)
{
    const obs::JsonValue *f = v.find(key);
    EXPECT_NE(f, nullptr) << "missing field " << key;
    return f && f->isString() ? f->string : std::string();
}

/** Channel with a scripted clock/RSS so every rate is exact. */
struct FakeClockChannel
{
    std::uint64_t now = 0;
    std::unique_ptr<TelemetryChannel> channel;
    std::string path;

    explicit FakeClockChannel(const char *stem,
                              std::uint64_t intervalInsts = 1000,
                              std::uint64_t intervalWallMs = 0,
                              std::size_t ringSize = 64,
                              std::uint64_t rssKb = 4242)
        : path(tmpPath(stem))
    {
        std::remove(path.c_str());
        TelemetryOptions opt;
        opt.intervalInsts = intervalInsts;
        opt.intervalWallMs = intervalWallMs;
        opt.ringSize = ringSize;
        opt.clockMs = [this] { return now; };
        opt.rssKb = [rssKb] { return rssKb; };
        std::string err;
        channel = TelemetryChannel::open(path, opt, &err);
        EXPECT_NE(channel, nullptr) << err;
    }

    ~FakeClockChannel() { channel.reset(); std::remove(path.c_str()); }
};

TEST(TelemetryChannel, MetaJobFinalRecordsAreWellFormed)
{
    FakeClockChannel fx("meta");
    fx.channel->emitMeta("arl_sim", "run");
    fx.now = 7;
    fx.channel->emitJobStart(0, "wl", "cfg", -1, 5000);
    fx.channel->emitJobDone(0, "wl", "cfg", -1, 5000, 9000);
    fx.channel->emitFinal(5000);

    auto lines = readLines(fx.path);
    ASSERT_EQ(lines.size(), 4u);

    obs::JsonValue meta = parseLine(lines[0]);
    EXPECT_EQ(numField(meta, "telemetry_schema"), obs::kTelemetrySchema);
    EXPECT_EQ(strField(meta, "kind"), "meta");
    EXPECT_EQ(strField(meta, "tool"), "arl_sim");
    EXPECT_EQ(strField(meta, "command"), "run");
    EXPECT_EQ(numField(meta, "interval_insts"), 1000);
    EXPECT_EQ(numField(meta, "ring"), 64);

    obs::JsonValue start = parseLine(lines[1]);
    EXPECT_EQ(strField(start, "kind"), "job");
    EXPECT_EQ(strField(start, "event"), "start");
    EXPECT_EQ(numField(start, "total_insts"), 5000);
    EXPECT_EQ(numField(start, "wall_ms"), 7);

    obs::JsonValue done = parseLine(lines[2]);
    EXPECT_EQ(strField(done, "event"), "done");
    EXPECT_EQ(numField(done, "insts"), 5000);
    EXPECT_EQ(numField(done, "cycles"), 9000);

    obs::JsonValue fin = parseLine(lines[3]);
    EXPECT_EQ(strField(fin, "kind"), "final");
    EXPECT_EQ(numField(fin, "insts"), 5000);
    // meta + 2 job records had been written when final was formatted.
    EXPECT_EQ(numField(fin, "records"), 3);
    EXPECT_GT(numField(fin, "bytes"), 0);
}

TEST(TelemetryScope, HeartbeatRatesAreExactWithInjectedClock)
{
    FakeClockChannel fx("rates", /*intervalInsts=*/1000);
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 10'000);
    scope.arm(0);
    EXPECT_EQ(scope.due(), 1000u);

    // 999 insts: below the interval — no heartbeat.
    fx.now = 50;
    TelemetryFrame f;
    f.insts = 999;
    f.cycles = 1500;
    scope.check(f);
    EXPECT_EQ(fx.channel->recordsEmitted(), 1u); // job start only

    // 2000 insts at t=100 ms: one heartbeat covering the whole span.
    fx.now = 100;
    f.insts = 2000;
    f.cycles = 4000;
    f.loads = 600;
    f.stores = 300;
    f.refsData = 900;
    f.refsHeap = 500;
    f.refsStack = 400;
    f.lvaqSteered = 120;
    f.contentionStalls = 77;
    scope.check(f);
    EXPECT_EQ(scope.due(), 3000u);
    ASSERT_EQ(fx.channel->recordsEmitted(), 2u);

    auto lines = readLines(fx.path);
    obs::JsonValue hb = parseLine(lines.back());
    EXPECT_EQ(strField(hb, "kind"), "hb");
    EXPECT_EQ(numField(hb, "seq"), 1);
    EXPECT_EQ(numField(hb, "insts"), 2000);
    EXPECT_EQ(numField(hb, "d_insts"), 2000);
    EXPECT_EQ(numField(hb, "d_cycles"), 4000);
    EXPECT_EQ(numField(hb, "wall_ms"), 100);
    EXPECT_DOUBLE_EQ(numField(hb, "ipc"), 0.5);
    // 2000 insts over 100 ms = 0.02 M insts / s.
    EXPECT_DOUBLE_EQ(numField(hb, "mips"), 0.02);
    // 8000 insts left at 20 insts/ms (= 20000 insts/s) = 0.4 s.
    EXPECT_DOUBLE_EQ(numField(hb, "eta_s"), 0.4);
    EXPECT_EQ(numField(hb, "d_loads"), 600);
    EXPECT_EQ(numField(hb, "d_stores"), 300);
    EXPECT_EQ(numField(hb, "d_refs_data"), 900);
    EXPECT_EQ(numField(hb, "d_refs_heap"), 500);
    EXPECT_EQ(numField(hb, "d_refs_stack"), 400);
    EXPECT_EQ(numField(hb, "d_lvaq"), 120);
    EXPECT_EQ(numField(hb, "d_contention"), 77);
    EXPECT_EQ(numField(hb, "rss_kb"), 4242);

    // Second beat: deltas are relative to the first, not cumulative.
    fx.now = 150;
    TelemetryFrame g = f;
    g.insts = 3000;
    g.cycles = 5000;
    g.loads = 700;
    scope.check(g);
    lines = readLines(fx.path);
    obs::JsonValue hb2 = parseLine(lines.back());
    EXPECT_EQ(numField(hb2, "seq"), 2);
    EXPECT_EQ(numField(hb2, "d_insts"), 1000);
    EXPECT_EQ(numField(hb2, "d_cycles"), 1000);
    EXPECT_EQ(numField(hb2, "d_loads"), 100);
    EXPECT_DOUBLE_EQ(numField(hb2, "ipc"), 1.0);

    scope.done(3000, 5000);
}

TEST(TelemetryScope, EpochGuardRebasesOnCounterReset)
{
    FakeClockChannel fx("epoch", /*intervalInsts=*/1000);
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 0);

    fx.now = 10;
    TelemetryFrame f;
    f.insts = 2000;
    f.cycles = 2000;
    scope.check(f);
    ASSERT_EQ(fx.channel->recordsEmitted(), 2u);

    // Stats fence: counters reset below the last frame.  No record
    // may be emitted (an underflowed delta would be garbage), and the
    // next threshold restarts from the new epoch.
    fx.now = 20;
    TelemetryFrame reset;
    reset.insts = 100;
    reset.cycles = 100;
    scope.check(reset);
    EXPECT_EQ(scope.due(), 1100u);
    EXPECT_EQ(fx.channel->recordsEmitted(), 2u);

    // The next beat's delta is measured from the re-based frame.
    fx.now = 30;
    TelemetryFrame g;
    g.insts = 1200;
    g.cycles = 1200;
    scope.check(g);
    ASSERT_EQ(fx.channel->recordsEmitted(), 3u);
    obs::JsonValue hb = parseLine(readLines(fx.path).back());
    EXPECT_EQ(numField(hb, "d_insts"), 1100);
    EXPECT_EQ(numField(hb, "d_cycles"), 1100);
}

TEST(TelemetryScope, WallClockTriggerBeatsWithoutInstProgress)
{
    FakeClockChannel fx("wall", /*intervalInsts=*/0,
                        /*intervalWallMs=*/100);
    TelemetryScope scope(fx.channel.get(), 0, "wl", "cfg", -1, 0);
    // Wall-clock-only channels still need periodic checks: the scope
    // is due every 64Ki instructions.
    scope.arm(0);
    EXPECT_EQ(scope.due(), 65536u);

    TelemetryFrame f;
    f.insts = 65536;
    fx.now = 50;
    scope.check(f);
    EXPECT_EQ(fx.channel->recordsEmitted(), 1u); // too soon

    f.insts = 131072;
    fx.now = 120;
    scope.check(f);
    ASSERT_EQ(fx.channel->recordsEmitted(), 2u);
    obs::JsonValue hb = parseLine(readLines(fx.path).back());
    EXPECT_EQ(numField(hb, "wall_ms"), 120);
    EXPECT_EQ(numField(hb, "d_insts"), 131072);
}

TEST(TelemetryChannel, WatchdogTracksPerJobBeats)
{
    FakeClockChannel fx("watchdog");
    EXPECT_EQ(fx.channel->msSinceBeat(0), UINT64_MAX); // not started
    // Start at t=5: a beat timestamp of 0 is the "idle" sentinel.
    fx.now = 5;
    fx.channel->emitJobStart(0, "wl", "cfg", -1, 0);
    fx.now = 255;
    EXPECT_EQ(fx.channel->msSinceBeat(0), 250u);
    EXPECT_EQ(fx.channel->msSinceBeat(1), UINT64_MAX);
    fx.channel->emitJobDone(0, "wl", "cfg", -1, 1, 1);
    EXPECT_EQ(fx.channel->msSinceBeat(0), UINT64_MAX); // finished
}

TEST(TelemetryChannel, BlackBoxDumpReplaysRingInOrder)
{
    FakeClockChannel fx("ring", 1000, 0, /*ringSize=*/4);
    fx.channel->emitMeta("arl_sim", "run");
    for (int j = 0; j < 6; ++j)
        fx.channel->emitJobStart(j, "wl", "cfg", -1, 0);
    // 7 records through a 4-deep ring: the dump replays the last 4.
    fx.channel->dumpBlackBox(SIGSEGV);

    auto lines = readLines(fx.path);
    // 7 durable records + 1 blank (leading newline guard) + header +
    // 4 replayed lines.
    ASSERT_EQ(lines.size(), 13u);
    EXPECT_TRUE(lines[7].empty());
    obs::JsonValue head = parseLine(lines[8]);
    EXPECT_EQ(strField(head, "kind"), "blackbox");
    EXPECT_EQ(numField(head, "signal"), SIGSEGV);
    EXPECT_EQ(numField(head, "lines"), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lines[9 + i], lines[3 + i]) << "ring replay line " << i;
}

/**
 * Run @p die in a forked child after it has armed the flight recorder
 * and emitted a few records, then verify in the parent that the child
 * was killed by @p expectSig and the telemetry file ends with a
 * parseable black-box postamble replaying every completed record.
 */
void
crashRoundTrip(const std::string &path, int expectSig,
               void (*die)(TelemetryChannel *))
{
    std::remove(path.c_str());
    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: quiet stderr (the abort path logs), open + arm, emit
        // a short stream, then die mid-run.  _exit on any failure so
        // gtest state is never touched from the child.
        if (!freopen("/dev/null", "w", stderr))
            _exit(97);
        TelemetryOptions opt;
        opt.intervalInsts = 1000;
        auto ch = TelemetryChannel::open(path, opt);
        if (!ch)
            _exit(98);
        obs::armFlightRecorder(ch.get());
        ch->emitMeta("test", "crash");
        TelemetryScope scope(ch.get(), 0, "wl", "cfg", -1, 100'000);
        TelemetryFrame f;
        for (int i = 1; i <= 5; ++i) {
            f.insts = static_cast<std::uint64_t>(i) * 1000;
            f.cycles = f.insts * 2;
            scope.check(f);
        }
        die(ch.get());
        _exit(99); // not reached
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child did not die from a signal (status " << status << ")";
    EXPECT_EQ(WTERMSIG(status), expectSig);

    // meta + job start + 5 heartbeats, then the postamble.
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 16u) << "unexpected telemetry line count";
    std::size_t blank = 7;
    EXPECT_TRUE(lines[blank].empty());
    obs::JsonValue head = parseLine(lines[blank + 1]);
    EXPECT_EQ(numField(head, "telemetry_schema"), obs::kTelemetrySchema);
    EXPECT_EQ(strField(head, "kind"), "blackbox");
    EXPECT_EQ(numField(head, "signal"), expectSig);
    EXPECT_EQ(numField(head, "lines"), 7);
    // The ring replay reproduces the durable stream byte for byte,
    // ending with the last completed record before the crash.
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(lines[blank + 2 + i], lines[i]);
        parseLine(lines[blank + 2 + i]);
    }
    obs::JsonValue lastHb = parseLine(lines[blank + 2 + 6]);
    EXPECT_EQ(strField(lastHb, "kind"), "hb");
    EXPECT_EQ(numField(lastHb, "insts"), 5000);
    std::remove(path.c_str());
}

TEST(FlightRecorder, SegfaultMidRunLeavesBlackBoxPostamble)
{
    crashRoundTrip(tmpPath("segv"), SIGSEGV, [](TelemetryChannel *) {
        ::raise(SIGSEGV);
    });
}

TEST(FlightRecorder, AssertAbortLeavesBlackBoxPostamble)
{
    // ARL_ASSERT/panic end in abort(); the SIGABRT handler covers
    // assertion failures.  abort() directly exercises the same path
    // without tripping gtest's death-test machinery on the message.
    crashRoundTrip(tmpPath("abrt"), SIGABRT, [](TelemetryChannel *) {
        std::abort();
    });
}

TEST(FlightRecorder, DisarmedChannelStillReRaises)
{
    std::string path = tmpPath("disarm");
    std::remove(path.c_str());
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        TelemetryOptions opt;
        auto ch = TelemetryChannel::open(path, opt);
        if (!ch)
            _exit(98);
        obs::armFlightRecorder(ch.get());
        ch->emitMeta("test", "disarm");
        ch.reset(); // ~TelemetryChannel disarms
        ::raise(SIGSEGV);
        _exit(99);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
    // No postamble: the channel was gone when the signal hit.
    for (const auto &line : readLines(path))
        EXPECT_EQ(line.find("blackbox"), std::string::npos) << line;
    std::remove(path.c_str());
}

TEST(IntervalSampler, StreamingSinkWritesRowsAndKeepsNoSamples)
{
    obs::StatsRegistry registry;
    std::uint64_t &commits = registry.counter("core.commits");
    std::ostringstream out;
    obs::IntervalSampler sampler(registry, 100, &out);
    EXPECT_TRUE(sampler.streaming());

    commits = 40;
    sampler.tick(100);
    commits = 90;
    sampler.tick(200);
    commits = 130;
    sampler.tick(250);   // mid-interval: no row yet
    sampler.flush(250);  // final partial interval

    // O(1) memory: nothing accumulates in the sampler itself.
    EXPECT_TRUE(sampler.samples().empty());
    EXPECT_TRUE(sampler.deltas().empty());

    std::istringstream rows(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(rows, line));
    EXPECT_EQ(line, "at,core.commits");
    ASSERT_TRUE(std::getline(rows, line));
    EXPECT_EQ(line, "100,40");
    ASSERT_TRUE(std::getline(rows, line));
    EXPECT_EQ(line, "200,90");
    ASSERT_TRUE(std::getline(rows, line));
    EXPECT_EQ(line, "250,130");
    EXPECT_FALSE(std::getline(rows, line)) << "extra row: " << line;
}

TEST(IntervalSampler, FlushWithoutNewProgressEmitsNoDuplicateRow)
{
    obs::StatsRegistry registry;
    std::uint64_t &commits = registry.counter("core.commits");
    std::ostringstream out;
    obs::IntervalSampler sampler(registry, 100, &out);
    commits = 50;
    sampler.tick(100);
    sampler.flush(100); // boundary already sampled
    std::istringstream rows(out.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(rows, line))
        ++n;
    EXPECT_EQ(n, 2u); // header + one row
}

TEST(IntervalClock, NoSinkNeverFires)
{
    obs::Hooks hooks;
    EXPECT_EQ(hooks.clock.arm(0), IntervalClock::kNever);
    // No channel: no scope opens, and closing none is a no-op.
    hooks.startTelemetry(nullptr, 0, "wl", "cfg", -1, 0);
    EXPECT_EQ(hooks.clock.telemetry, nullptr);
    EXPECT_EQ(hooks.clock.arm(100), IntervalClock::kNever);
    hooks.finishTelemetry(0, 0);
}

TEST(IntervalClock, ThresholdIsTheEarliestDueSink)
{
    FakeClockChannel fx("clock_due", /*intervalInsts=*/1000);
    obs::Hooks hooks;
    std::uint64_t &commits = hooks.registry.counter("core.commits");
    hooks.intervalEvery = 300;
    hooks.startSampling();
    hooks.startTelemetry(fx.channel.get(), 0, "wl", "cfg", -1, 0);
    ASSERT_NE(hooks.clock.telemetry, nullptr);

    EXPECT_EQ(hooks.clock.arm(0), 300u); // sampler 300, telemetry 1000
    EXPECT_EQ(hooks.clock.nextAt(), 300u);
    commits = 300;
    EXPECT_EQ(hooks.clock.beat({.insts = 300}), 600u);
    commits = 900;
    EXPECT_EQ(hooks.clock.beat({.insts = 900}), 1000u); // sampler 1200
    EXPECT_EQ(hooks.clock.beat({.insts = 1000}), 1200u); // heartbeat
    EXPECT_EQ(fx.channel->recordsEmitted(), 2u); // job start + beat

    // Muted heartbeats drop out of the schedule; rows keep sampling.
    hooks.clock.heartbeatsMuted = true;
    EXPECT_EQ(hooks.clock.arm(1000), 1200u);
    commits = 2400;
    EXPECT_EQ(hooks.clock.beat({.insts = 2400}), 2700u);
    EXPECT_EQ(fx.channel->recordsEmitted(), 2u);
    hooks.clock.heartbeatsMuted = false;
    EXPECT_EQ(hooks.clock.arm(2400), 2700u); // telemetry re-armed: 3400
    EXPECT_EQ(hooks.clock.telemetry->due(), 3400u);

    ASSERT_EQ(hooks.clock.sampler->samples().size(), 3u);
    EXPECT_EQ(hooks.clock.sampler->samples()[2].at, 2400u);
    hooks.finishTelemetry(2400, 0);
    EXPECT_EQ(hooks.clock.telemetry, nullptr);
    EXPECT_EQ(fx.channel->recordsEmitted(), 3u); // + job done
}

/** What one timed OooCore run emitted through each attached sink. */
struct CoreSinks
{
    std::string heartbeats; ///< telemetry JSONL lines
    std::string rows;       ///< interval CSV rows
};

/**
 * Time li_like (2+0) for 20K instructions after a 5K warmup with the
 * interval sampler and/or a telemetry scope on a zero clock with zero
 * RSS attached, so every emitted byte is deterministic.
 */
CoreSinks
timeWithSinks(bool sampler, bool telemetry)
{
    FakeClockChannel fx(sampler ? "core_both" : "core_beats",
                        /*intervalInsts=*/2000, 0, 64, /*rssKb=*/0);
    ooo::OooCore core(ooo::MachineConfig::nPlusM(2, 0),
                      workloads::buildWorkload("li_like", 1));
    obs::Hooks hooks;
    std::ostringstream rows;
    if (sampler) {
        hooks.intervalEvery = 5000;
        hooks.intervalStream = &rows;
    }
    core.attachObs(&hooks);
    if (telemetry)
        hooks.startTelemetry(fx.channel.get(), 0, "li_like", "(2+0)", -1,
                             20'000);
    ooo::OooStats stats = core.measure(5000, 0, 20'000);
    hooks.finishTelemetry(stats.instructions, stats.cycles);
    CoreSinks out;
    out.rows = rows.str();
    for (const std::string &line : readLines(fx.path))
        out.heartbeats += line + "\n";
    return out;
}

TEST(IntervalClock, BothSinksOnOneCoreEmitWhatEachEmitsAlone)
{
    CoreSinks both = timeWithSinks(true, true);
    CoreSinks rows_only = timeWithSinks(true, false);
    CoreSinks beats_only = timeWithSinks(false, true);
    EXPECT_EQ(both.rows, rows_only.rows);
    EXPECT_EQ(both.heartbeats, beats_only.heartbeats);
    EXPECT_TRUE(rows_only.heartbeats.empty());
    EXPECT_TRUE(beats_only.rows.empty());

    // Both sinks fired: header + ceil(20000/5000) rows, and a
    // heartbeat roughly every 2000 instructions between the job's
    // start and done records.
    std::size_t rows = 0, beats = 0;
    for (char c : both.rows)
        rows += c == '\n';
    EXPECT_EQ(rows, 5u);
    std::istringstream in(both.heartbeats);
    std::string line;
    while (std::getline(in, line))
        beats += strField(parseLine(line), "kind") == "hb";
    EXPECT_GE(beats, 8u);
    EXPECT_LE(beats, 10u);
}

TEST(IntervalClock, RunSampleMutesHeartbeatsThroughDetailedWarmup)
{
    FakeClockChannel fx("sample_mute", /*intervalInsts=*/1000, 0, 64,
                        /*rssKb=*/0);
    ooo::OooCore core(ooo::MachineConfig::nPlusM(2, 0),
                      workloads::buildWorkload("li_like", 1));
    obs::Hooks hooks;
    core.attachObs(&hooks);
    hooks.startTelemetry(fx.channel.get(), 0, "li_like", "(2+0)", 0,
                         4000);
    core.warmup(5000);
    // 6000 detailed-warmup instructions, fenced, then 4000 timed.
    ooo::OooStats stats = core.runSample(4000, 6000);
    hooks.finishTelemetry(stats.instructions, stats.cycles);
    EXPECT_FALSE(hooks.clock.heartbeatsMuted);

    // A beat before the fence would count past the timed window and
    // leave the first timed beat re-based instead of emitted.
    std::vector<obs::JsonValue> beats;
    for (const std::string &line : readLines(fx.path)) {
        obs::JsonValue v = parseLine(line);
        if (strField(v, "kind") == "hb")
            beats.push_back(v);
    }
    ASSERT_GE(beats.size(), 3u);
    EXPECT_EQ(numField(beats[0], "d_insts"), numField(beats[0], "insts"));
    double prev = 0;
    for (const obs::JsonValue &hb : beats) {
        EXPECT_GT(numField(hb, "insts"), prev);
        EXPECT_LE(numField(hb, "insts"),
                  static_cast<double>(stats.instructions));
        prev = numField(hb, "insts");
    }
}

} // namespace
