/**
 * @file
 * Parallel experiment sweep engine.
 *
 * Every §3/§4 reproduction is a grid walk: workloads × machine
 * configurations (timing, Fig 8 and the ablations) or workloads ×
 * predictor schemes (region studies, Figs 4/5).  Run serially, each
 * grid point re-builds and re-simulates its workload from scratch;
 * this engine instead
 *
 *  1. builds each workload's Program once and records its dynamic
 *     instruction trace once (optionally persisted in an on-disk
 *     trace cache), then
 *  2. shards the grid across a thread pool, replaying the shared
 *     immutable trace into per-job OooCores / predictors, each with
 *     its own obs::StatsRegistry, and
 *  3. merges results in declaration (workload-major, config-minor)
 *     order, so the output is byte-identical no matter how many
 *     worker threads ran — `--jobs 1` and `--jobs N` produce the
 *     same report (tests/test_differential.cc asserts this, and
 *     tests/golden/ pins the numbers).
 *
 * Determinism rests on two facts: trace recording is
 * bit-reproducible, and trace replay into an OooCore is
 * bit-identical to live co-simulation (the differential tests cover
 * both).  Wall-clock figures (which legitimately vary run to run)
 * are kept out of toReport() and exposed separately via
 * addTimingStats() under the sweep.* prefix.
 */

#ifndef ARL_SWEEP_SWEEP_HH
#define ARL_SWEEP_SWEEP_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/hooks.hh"
#include "obs/report.hh"
#include "ooo/config.hh"
#include "ooo/core.hh"
#include "predict/region_predictor.hh"
#include "profile/region_profiler.hh"
#include "profile/window_profiler.hh"
#include "trace/trace.hh"

namespace arl::sweep
{

/** One workload row of the grid. */
struct WorkloadSpec
{
    /** Registered workload name (workloads::buildWorkload), or the
     *  display name of a corpus program when sourcePath is set. */
    std::string name;
    /**
     * When non-empty, assemble this `.s` file (the --workload-dir
     * corpus axis) instead of consulting the workload registry.
     * Trace-cache entries are keyed by the source bytes' CRC32, so
     * editing the file invalidates its cache entry.
     */
    std::string sourcePath;
    unsigned scale = 1;
    /** Functional fast-forward before the timed window (§4). */
    InstCount warmup = 0;
    /** Timed instruction budget (0 = to completion). */
    InstCount timed = 0;
    /** Region-study instruction cap (0 = full execution). */
    InstCount studyInsts = 0;
    /**
     * Warm microarchitectural state only from the last N fast-forward
     * instructions (0 = all of them, the classic methodology).  A
     * bounded window is what makes checkpointed fast-forward
     * (SweepSpec::seekFastForward) bit-identical to functional
     * fast-forward: both paths warm the same final window.
     */
    InstCount warmupWindow = 0;
};

/** One named predictor scheme column of a region-study grid. */
struct SchemeSpec
{
    std::string name;
    predict::RegionPredictorConfig config;
};

/** The declarative grid. */
struct SweepSpec
{
    std::vector<WorkloadSpec> workloads;
    /** Timing grid: one OoO run per workload × config. */
    std::vector<ooo::MachineConfig> configs;
    /**
     * Region-study grid: one replay pass per workload feeds every
     * scheme (the §3 methodology evaluates all schemes in one pass).
     */
    std::vector<SchemeSpec> schemes;
    /** Worker threads; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 1;
    /**
     * Directory for the on-disk trace cache ("" = in-memory only).
     * Entries are keyed by workload, scale, window length, and
     * format; recording is bit-reproducible, so hits are
     * byte-equivalent to fresh recordings.
     */
    std::string traceCacheDir;
    /** On-disk encoding of cache entries (names the cache key). */
    trace::TraceFormat traceFormat = trace::TraceFormat::V2;
    /**
     * Resolve each timing point's fast-forward to the nearest
     * recorded checkpoint at or below (warmup - warmupWindow) and
     * seek the trace there instead of replaying the prefix.  Results
     * are bit-identical to functional fast-forward with the same
     * warmupWindow; only wall-clock changes.  Traces without
     * checkpoints (hand-built ones) fall back to functional
     * fast-forward.
     */
    bool seekFastForward = false;
    /**
     * Checkpoint cadence while recording (0 = DefaultBlockRecords).
     * Also the block size of cache entries written by this sweep, so
     * at most trace::MaxBlockRecords when a cache is used.
     */
    InstCount checkpointEvery = 0;
    /**
     * Force per-cycle stall attribution (ooo.cpi_stack.* and the
     * load-to-use histogram) on every timing config, ideal ones
     * included; contended configs account regardless.  Observation
     * only — timing numbers are unchanged, reports gain keys.
     */
    bool cpiStack = false;
    /**
     * Phase-sampled timing (src/sampling): fingerprint the trace in
     * fixed-length intervals, cluster the intervals into phases, and
     * detail-simulate only each phase's representative window,
     * extrapolating whole-run CPI with a confidence interval.  The
     * population per point is the timed window after the workload's
     * warmup prefix — exactly the records an unsampled timing point
     * measures — so estimates are comparable with full-run goldens,
     * and a verify run measures the point exactly as an unsampled
     * sweep does (OooCore::measure) for the measured error.
     * Deterministic and byte-identical across --jobs values, like
     * the exact path.
     */
    bool sampling = false;
    /** Sampling interval length in instructions. */
    InstCount samplingInterval = 10000;
    /** Requested phase count k (clamped to distinct intervals). */
    unsigned samplingClusters = 6;
    /** Warmup before each representative window (the tail runs
     *  through the detailed pipeline, the rest is functional). */
    InstCount samplingWarmup = 5000;
    /**
     * Also run the full population per sampled timing point and
     * record the measured CPI error next to the estimate.  Costs
     * what sampling saved; for tests, benches and walkthroughs.
     */
    bool samplingVerify = false;
    /**
     * Optional shared telemetry channel (non-owning; the CLI owns
     * it and its lifetime spans the sweep).  The coordinator emits
     * per-job start/done records, every timing job streams
     * heartbeats through its own TelemetryScope — sampled points
     * per representative — and a watchdog thread flags jobs whose
     * heartbeat stalls longer than telemetryStallSec.  Observation
     * only: results and reports are byte-identical with or without
     * a channel attached.
     */
    obs::TelemetryChannel *telemetry = nullptr;
    /** Watchdog stall threshold in seconds (0 = no watchdog). */
    double telemetryStallSec = 30.0;
    /**
     * Interval-sampling period in committed instructions for every
     * exact timing point (0 = off).  Each point's rows land in
     * TimingPoint::intervals and toReport() emits them as the run's
     * "intervals" section.  Phase-sampled sweeps ignore it.
     */
    std::uint64_t intervalEvery = 0;
    /**
     * Observability context the grid's first timing point (workload
     * 0, config 0) runs on instead of a fresh one — non-owning; the
     * caller opens its pipetrace, Chrome-trace and interval-stream
     * sinks beforehand and owns them afterwards.  Exact sweeps only;
     * null = no sinks.
     */
    obs::Hooks *firstPointHooks = nullptr;
};

/** Result of one timing grid point. */
struct TimingPoint
{
    std::string workload;
    std::string config;
    ooo::OooStats stats;
    /** Frozen per-job registry (the --stats-json record body). */
    obs::StatsRegistry::Snapshot snapshot;
    /** Interval rows (SweepSpec::intervalEvery; every == 0 = off). */
    obs::IntervalReport intervals;
    /** Phase-sampling audit trail (enabled only in sampled mode). */
    obs::SamplingReport sampling;
};

/** Result of one workload's region-study pass. */
struct RegionPoint
{
    std::string workload;
    InstCount instructions = 0;
    profile::RegionProfile profile;
    profile::WindowStats window32;
    profile::WindowStats window64;
    /** Per-scheme accuracy reports, in scheme-list order. */
    std::vector<std::pair<std::string, predict::PredictorReport>>
        schemes;
    /** Frozen profile.* stats (the --stats-json record body). */
    obs::StatsRegistry::Snapshot snapshot;
};

/**
 * The §3 profiling method as one pass: each step of a committed-
 * instruction stream feeds the region profiler (Fig 2), the 32/64-
 * instruction window profilers (Table 2) and one predictor per scheme
 * (Fig 4).  The sweep's region jobs, Experiment::regionStudy and
 * `arl_sim profile`/`replay` all run it, so they report one key set:
 * profile.{instructions,loads,stores,refs.<region>},
 * profile.window{32,64}.<region>.mean and
 * profile.scheme.<name>.{accuracy_pct,arpt_entries}.
 *
 * The constructor registers those stats into hooks.registry, then
 * calls hooks.startSampling() (interval rows when intervalEvery is
 * set).  A telemetry job open on the hooks beats from the running
 * counters; run() closes it and finalizes the hooks, whose registry
 * points into the pass: read hooks.finalSnapshot afterwards.
 */
class RegionPass
{
  public:
    /** @param hints consulted by every scheme when non-null. */
    RegionPass(const std::vector<SchemeSpec> &schemes, obs::Hooks &hooks,
               const predict::HintSource *hints = nullptr);
    RegionPass(const RegionPass &) = delete;
    RegionPass &operator=(const RegionPass &) = delete;

    /**
     * Feed up to @p max_insts steps of @p source (0 = all) and return
     * the point (workload left to the caller).  A template, so
     * ReplaySource/TraceReader/SimulatorSource calls stay non-virtual.
     */
    template <class Source>
    RegionPoint
    run(Source &source, InstCount max_insts)
    {
        // Compare against a local copy of the clock's threshold.
        std::uint64_t next = hooks.clock.arm(0);
        InstCount n = 0;
        sim::StepInfo step;
        while ((!max_insts || n < max_insts) && source.next(step)) {
            region.observe(step);
            win32.observe(step);
            win64.observe(step);
            for (predict::RegionPredictor &predictor : predictors)
                predictor.observe(step);
            if (++n >= next) [[unlikely]]
                next = hooks.clock.beat(frame(n));
        }
        return finish(n);
    }

  private:
    /** Heartbeat frame from the profiler's running counters. */
    obs::TelemetryFrame frame(InstCount n) const;
    RegionPoint finish(InstCount n);

    obs::Hooks &hooks;
    std::vector<std::string> names;
    profile::RegionProfiler region;
    profile::WindowProfiler win32{32};
    profile::WindowProfiler win64{64};
    std::vector<predict::RegionPredictor> predictors;
};

/** Merged sweep output plus engine-level metering. */
struct SweepResult
{
    /** Timing points, workload-major then config order. */
    std::vector<TimingPoint> timing;
    /** Region points, workload order. */
    std::vector<RegionPoint> region;
    /** Configs per workload row (timing stride). */
    std::size_t numConfigs = 0;

    // --- engine metering (varies run to run; never in toReport) ---
    unsigned jobs = 1;
    double wallSeconds = 0.0;
    /** Sum of per-job times: what a serial run would have cost. */
    double serialSecondsEstimate = 0.0;
    std::uint64_t traceInstructions = 0;
    std::uint64_t traceCacheHits = 0;
    std::uint64_t traceCacheMisses = 0;
    /** On-disk bytes of cache entries read or written this run. */
    std::uint64_t traceDiskBytes = 0;
    /** What the same records cost raw (64 + 32 N per workload). */
    std::uint64_t traceV1EquivBytes = 0;
    /** Wall time spent loading + decoding cache hits. */
    double traceDecodeSeconds = 0.0;
    /** Records skipped by checkpointed fast-forward across all jobs
     *  (exact and verify jobs seek only when they build warm state). */
    std::uint64_t seekSkippedRecords = 0;

    // --- warm-state sharing (deterministic, but kept out of
    // toReport() so reports keep their bytes) ---
    /** Warm states built: one per (workload row, warm key) with
     *  exact or verify points. */
    std::uint64_t warmStatesBuilt = 0;
    /** Warmup records replayed to build them (after any seek). */
    std::uint64_t warmupReplayedInsts = 0;

    /** Timing point (wi, ci). */
    const TimingPoint &
    at(std::size_t wi, std::size_t ci) const
    {
        return timing[wi * numConfigs + ci];
    }

    /** Parallel speedup vs the serial estimate. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? serialSecondsEstimate / wallSeconds
                                 : 0.0;
    }

    /**
     * One RunRecord per grid point plus a "sweep"/"summary" record of
     * grid-shape stats.  Fully deterministic: byte-identical across
     * --jobs values, cache hits vs misses, and repeated runs.
     */
    obs::Report toReport(const std::string &command = "sweep") const;

    /**
     * Register the run-to-run metering (sweep.wall_seconds,
     * sweep.speedup, sweep.jobs, trace-cache hit counts) into @p
     * registry.  Kept out of toReport() so determinism checks stay
     * byte-exact.
     */
    void addTimingStats(obs::StatsRegistry &registry) const;
};

/**
 * Run the grid.  Deterministic: the returned points depend only on
 * the spec, never on jobs/threads/cache state.
 */
SweepResult runSweep(const SweepSpec &spec);

/**
 * Convenience: all registered workloads as WorkloadSpecs at @p scale
 * with their registry warmups and a @p timed budget per point.
 */
std::vector<WorkloadSpec> allWorkloadSpecs(unsigned scale,
                                           InstCount timed);

} // namespace arl::sweep

#endif // ARL_SWEEP_SWEEP_HH
