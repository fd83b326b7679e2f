/**
 * @file
 * The bundle a simulation run threads through its components: one
 * stats registry everybody registers into, the interval clock that
 * drives the interval sampler and the telemetry heartbeats, and the
 * optional pipeline tracers the CLI flags enable.
 *
 * Lifecycle: construct → components register stats (attachObs /
 * registerStats) → startSampling() freezes the sampled name set and
 * startTelemetry() opens the job's heartbeat scope → every pass
 * arms the clock at its entry and calls beat() whenever its
 * committed-instruction count reaches nextAt → finishSampling(),
 * finishTelemetry() and finalize() while the components are alive →
 * serialize via obs::Report.  OooCore::measure() runs the sampling
 * part of that sequence (start sampling after warmup, run, flush,
 * finalize) for every timing point, so one Hooks serves exactly one
 * run.
 */

#ifndef ARL_OBS_HOOKS_HH
#define ARL_OBS_HOOKS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "obs/chrome_trace.hh"
#include "obs/pipetrace.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"

namespace arl::obs
{

/**
 * The interval schedule of one run.  Every pass (the OoO core's cycle
 * loop; the functional, replay and region loops) compares its
 * committed-instruction count with nextAt() alone and calls beat()
 * once it is reached.  Two sinks keep their own due policies: the
 * sampler (rows or a CSV stream) fires on aligned `every` boundaries
 * and flushes one final row; the telemetry scope (JSONL heartbeats,
 * black-box ring) re-arms at insts + its sub-interval on every arm(),
 * triggers on instructions or wall time, and re-bases on an epoch
 * change.  nextAt() is the earlier of the two due counts.
 */
class IntervalClock
{
  public:
    /** nextAt() with no sink due: a pass never calls beat(). */
    static constexpr std::uint64_t kNever = UINT64_MAX;

    std::unique_ptr<IntervalSampler> sampler;
    std::unique_ptr<TelemetryScope> telemetry;

    /** No heartbeats while set (runSample's detailed warmup). */
    bool heartbeatsMuted = false;

    /** Re-arm at a pass entry at @p insts.  @return nextAt(). */
    std::uint64_t arm(std::uint64_t insts);

    /** Cold path: feed every due sink.  @return the new nextAt(). */
    std::uint64_t beat(const TelemetryFrame &frame);

    /** Committed-instruction count of the next due sink. */
    std::uint64_t nextAt() const { return next; }

  private:
    std::uint64_t schedule();

    std::uint64_t next = kNever;
};

/** Per-run observability context. */
struct Hooks
{
    StatsRegistry registry;

    /** Sampling period in committed instructions; 0 = disabled. */
    std::uint64_t intervalEvery = 0;

    /** Interval schedule; owns the sampler and the telemetry scope. */
    IntervalClock clock;

    std::unique_ptr<PipeTracer> tracer;
    std::unique_ptr<ChromeTracer> chrome;

    /**
     * Optional incremental sink for the sampler (non-owning; the CLI
     * owns the stream).  When set, startSampling() routes interval
     * rows to it as they are captured — O(1) sampler memory — and
     * the report's "intervals" section is omitted.
     */
    std::ostream *intervalStream = nullptr;

    /**
     * Freeze the sampled stat set and arm the sampler.  Call after
     * every component has registered; a no-op when intervalEvery is 0.
     */
    void startSampling();

    /**
     * Open this run's telemetry job on @p channel and emit its start
     * record (arguments as for TelemetryScope).  A no-op when
     * @p channel is null.
     */
    void startTelemetry(TelemetryChannel *channel, int job,
                        std::string workload, std::string config, int rep,
                        std::uint64_t total_insts);

    /**
     * Emit the job-done record and close the telemetry scope.  A
     * no-op when no job is open.
     */
    void finishTelemetry(std::uint64_t insts, std::uint64_t cycles);

    /**
     * Open @p path and attach a PipeTracer writing to it.
     * @param max_events event cap (0 = unlimited).
     * @return false (with a warning) when the file cannot be opened.
     */
    bool openTrace(const std::string &path, std::uint64_t max_events = 0);

    /**
     * Open @p path and attach a ChromeTracer writing to it.
     * @param max_insts instruction-record cap (0 = unlimited).
     * @return false (with a warning) when the file cannot be opened.
     */
    bool openChromeTrace(const std::string &path,
                         std::uint64_t max_insts = 0);

    /**
     * Serialize and close the Chrome trace (counter tracks from the
     * sampler are appended first when sampling was on).  A no-op when
     * no Chrome trace is attached.
     */
    void finishChromeTrace(const std::string &process_name);

    /**
     * End-of-run notification: flush the sampler's final partial
     * interval so the row count is ceil(committed/every).  Call
     * before finalize().
     */
    void
    finishSampling(std::uint64_t committed)
    {
        if (clock.sampler)
            clock.sampler->flush(committed);
    }

    /** True when pipeline or Chrome tracing is active. */
    bool tracing() const { return tracer != nullptr || chrome != nullptr; }

    /**
     * Capture the registry's values while the registered components
     * are still alive.  Live counter/gauge/formula entries point into
     * the components that registered them, so a snapshot taken after
     * those objects are destroyed reads freed memory; call this at
     * the end of the run (OooCore::measure does) and
     * RunRecord::fromHooks will use the captured values.
     */
    void finalize() { finalSnapshot = registry.snapshot(); finalized = true; }

    StatsRegistry::Snapshot finalSnapshot;
    bool finalized = false;

  private:
    std::unique_ptr<std::ostream> traceFile;
    std::unique_ptr<std::ostream> chromeFile;
};

} // namespace arl::obs

#endif // ARL_OBS_HOOKS_HH
