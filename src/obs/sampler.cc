#include "obs/sampler.hh"

#include <ostream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace arl::obs
{

IntervalSampler::IntervalSampler(const StatsRegistry &reg,
                                 std::uint64_t every, std::ostream *os)
    : registry(reg), interval(every), nextAt(every), stream(os)
{
    ARL_ASSERT(every > 0, "zero sampling interval");
    for (auto &[name, value] : registry.snapshot()) {
        statNames.push_back(name);
        base.push_back(value);
    }
    if (!stream)
        return;
    *stream << "at";
    for (const std::string &name : statNames)
        *stream << ',' << name;
    *stream << '\n';
    stream->flush();
}

std::vector<double>
IntervalSampler::sampleValues() const
{
    // Evaluate in frozen-name order; stats registered after
    // construction are deliberately excluded so columns stay stable.
    std::vector<double> values;
    values.reserve(statNames.size());
    StatsRegistry::Snapshot snap = registry.snapshot();
    std::size_t cursor = 0;
    for (const std::string &name : statNames) {
        while (cursor < snap.size() && snap[cursor].first != name)
            ++cursor;
        ARL_ASSERT(cursor < snap.size(),
                   "sampled stat '%s' disappeared", name.c_str());
        values.push_back(snap[cursor].second);
    }
    return values;
}

void
IntervalSampler::capture(std::uint64_t committed)
{
    if (stream) {
        // Streaming sink: one row per sample, flushed immediately so
        // a long run is observable (and crash-durable) as it goes;
        // nothing accumulates in memory.
        *stream << committed;
        for (double v : sampleValues())
            *stream << ',' << jsonNumber(v);
        *stream << '\n';
        stream->flush();
    } else {
        taken.push_back({committed, sampleValues()});
    }
    lastAt = committed;
    // One sample per crossing even when several boundaries were
    // passed at once (e.g. a batched commit burst).
    nextAt = (committed / interval + 1) * interval;
}

void
IntervalSampler::tick(std::uint64_t committed)
{
    if (committed >= nextAt)
        capture(committed);
}

void
IntervalSampler::flush(std::uint64_t committed)
{
    // Only sample when there is progress past the last row; a run
    // whose length is an exact multiple of the interval already has
    // its final row from tick().
    if (committed > lastAt)
        capture(committed);
}

std::vector<IntervalSampler::Sample>
IntervalSampler::deltas() const
{
    std::vector<Sample> out;
    out.reserve(taken.size());
    const std::vector<double> *prev = &base;
    for (const Sample &s : taken) {
        Sample d;
        d.at = s.at;
        d.values.reserve(s.values.size());
        for (std::size_t i = 0; i < s.values.size(); ++i)
            d.values.push_back(s.values[i] - (*prev)[i]);
        out.push_back(std::move(d));
        prev = &s.values;
    }
    return out;
}

} // namespace arl::obs
