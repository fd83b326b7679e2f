#include "obs/hooks.hh"

#include <fstream>

#include "common/logging.hh"

namespace arl::obs
{

std::uint64_t
IntervalClock::schedule()
{
    next = sampler ? sampler->due() : kNever;
    if (telemetry && !heartbeatsMuted && telemetry->due() < next)
        next = telemetry->due();
    return next;
}

std::uint64_t
IntervalClock::arm(std::uint64_t insts)
{
    if (telemetry)
        telemetry->arm(insts);
    return schedule();
}

std::uint64_t
IntervalClock::beat(const TelemetryFrame &frame)
{
    if (sampler)
        sampler->tick(frame.insts);
    if (telemetry && !heartbeatsMuted && frame.insts >= telemetry->due())
        telemetry->check(frame);
    return schedule();
}

void
Hooks::startSampling()
{
    if (intervalEvery == 0 || clock.sampler)
        return;
    clock.sampler = std::make_unique<IntervalSampler>(
        registry, intervalEvery, intervalStream);
}

void
Hooks::startTelemetry(TelemetryChannel *channel, int job,
                      std::string workload, std::string config, int rep,
                      std::uint64_t total_insts)
{
    if (channel)
        clock.telemetry = std::make_unique<TelemetryScope>(
            channel, job, std::move(workload), std::move(config), rep,
            total_insts);
}

void
Hooks::finishTelemetry(std::uint64_t insts, std::uint64_t cycles)
{
    if (clock.telemetry)
        clock.telemetry->done(insts, cycles);
    clock.telemetry.reset();
}

bool
Hooks::openTrace(const std::string &path, std::uint64_t max_events)
{
    auto file = std::make_unique<std::ofstream>(path);
    if (!file->is_open()) {
        warn("cannot open pipetrace file '%s'", path.c_str());
        return false;
    }
    traceFile = std::move(file);
    tracer = std::make_unique<PipeTracer>(*traceFile, max_events);
    return true;
}

bool
Hooks::openChromeTrace(const std::string &path, std::uint64_t max_insts)
{
    auto file = std::make_unique<std::ofstream>(path);
    if (!file->is_open()) {
        warn("cannot open chrome trace file '%s'", path.c_str());
        return false;
    }
    chromeFile = std::move(file);
    chrome = std::make_unique<ChromeTracer>(*chromeFile, max_insts);
    return true;
}

void
Hooks::finishChromeTrace(const std::string &process_name)
{
    if (!chrome)
        return;
    if (clock.sampler)
        chrome->counterTracks(*clock.sampler);
    chrome->finish(process_name);
    chrome.reset();
    chromeFile.reset();
}

} // namespace arl::obs
