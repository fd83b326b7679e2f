#include "runner/spans.hh"

#include <cstring>
#include <fstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin(std::chrono::steady_clock::now()) {}

std::uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin)
            .count());
}

int
SpanRecorder::begin(const char *name)
{
    Span span;
    span.name = name;
    span.parent = open.empty() ? -1 : open.back();
    span.startNs = nowNs();
    all.push_back(span);
    int id = static_cast<int>(all.size() - 1);
    open.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    ARL_ASSERT(!open.empty() && open.back() == id,
               "spans must close innermost first");
    all[static_cast<std::size_t>(id)].endNs = nowNs();
    open.pop_back();
}

std::string
SpanRecorder::layerOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer(std::size_t first, std::size_t last) const
{
    std::map<std::string, double> self;
    for (std::size_t i = first; i < last; ++i)
        self[layerOf(all[i].name)] += all[i].seconds();
    for (std::size_t i = first; i < last; ++i) {
        int p = all[i].parent;
        if (p >= static_cast<int>(first))
            self[layerOf(all[static_cast<std::size_t>(p)].name)] -=
                all[i].seconds();
    }
    return self;
}

double
SpanRecorder::seconds(const char *name, std::size_t first,
                      std::size_t last) const
{
    double total = 0.0;
    for (std::size_t i = first; i < last; ++i)
        if (std::strcmp(all[i].name, name) == 0)
            total += all[i].seconds();
    return total;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    // Spans are appended at begin(), so index order is start order
    // (parents before children at equal timestamps).
    std::ofstream os(path);
    if (!os)
        return false;
    arl::obs::JsonWriter w(os, 0);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        w.beginObject();
        w.field("name", span.name);
        w.field("cat", layerOf(span.name));
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", 1);
        w.field("ts", span.startNs / 1e3);
        w.field("dur", (span.endNs - span.startNs) / 1e3);
        w.key("args").beginObject();
        w.field("id", static_cast<std::uint64_t>(i));
        w.field("parent", static_cast<std::int64_t>(span.parent));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    os << '\n';
    return static_cast<bool>(os);
}

} // namespace perfbench
