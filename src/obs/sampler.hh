/**
 * @file
 * Interval sampler: periodic snapshots of a StatsRegistry keyed to
 * committed-instruction count, exposing phase behaviour (region mix,
 * ARPT accuracy, LVC hit rate over time) instead of end-of-run
 * aggregates only.
 */

#ifndef ARL_OBS_SAMPLER_HH
#define ARL_OBS_SAMPLER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/stats_registry.hh"

namespace arl::obs
{

/**
 * Samples a registry every @p every committed instructions.
 *
 * The leaf-name list is frozen at construction (stats registered
 * later are not sampled), as is a baseline snapshot so deltas are
 * relative to the sampling start (e.g. after cache warmup), not to
 * zero.  The sampler is a sink of the run's IntervalClock (hooks.hh),
 * which calls tick() only once due() is reached.
 */
class IntervalSampler
{
  public:
    /** One snapshot, values in names() order. */
    struct Sample
    {
        std::uint64_t at = 0;  ///< committed instructions when taken
        std::vector<double> values;
    };

    /**
     * @param registry sampled registry; must outlive the sampler.
     * @param every    sampling period in committed instructions (>0).
     * @param stream   optional streaming sink, which must outlive the
     *        sampler: every sample is written to it as a CSV row
     *        ("at,<value>,...", header emitted immediately) instead
     *        of accumulating in memory, so a 100 M-instruction run
     *        holds O(1) sampler state.  samples()/deltas() stay
     *        empty; the serialized report omits its "intervals"
     *        section.
     */
    IntervalSampler(const StatsRegistry &registry, std::uint64_t every,
                    std::ostream *stream = nullptr);

    /** True when a streaming sink is attached. */
    bool streaming() const { return stream != nullptr; }

    /**
     * Notify progress to @p committed instructions; takes one sample
     * when the next boundary has been reached or passed.
     */
    void tick(std::uint64_t committed);

    /** The next aligned boundary: the count at which tick() samples. */
    std::uint64_t due() const { return nextAt; }

    /**
     * End-of-run flush: capture the final partial interval (if any
     * instructions ran past the last sample) so a run of N committed
     * instructions yields ceil(N/every) rows, not floor.
     */
    void flush(std::uint64_t committed);

    /** Sampling period. */
    std::uint64_t every() const { return interval; }

    /** Frozen leaf-stat names (column order of every sample). */
    const std::vector<std::string> &names() const { return statNames; }

    /** Values captured at construction (the delta baseline). */
    const std::vector<double> &baseline() const { return base; }

    /** All samples taken so far (cumulative values). */
    const std::vector<Sample> &samples() const { return taken; }

    /**
     * Per-interval differences: deltas()[0] is samples()[0] minus the
     * baseline, deltas()[i] is samples()[i] minus samples()[i-1].
     * Meaningful for counters; for gauges/formulas it is the change
     * in level over the interval.
     */
    std::vector<Sample> deltas() const;

  private:
    std::vector<double> sampleValues() const;
    void capture(std::uint64_t committed);

    const StatsRegistry &registry;
    std::uint64_t interval;
    std::uint64_t nextAt;
    std::vector<std::string> statNames;
    std::vector<double> base;
    std::vector<Sample> taken;
    std::ostream *stream = nullptr;
    std::uint64_t lastAt = 0; ///< `at` of the last row captured
};

} // namespace arl::obs

#endif // ARL_OBS_SAMPLER_HH
