/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is (name, start, end, parent).  The name's prefix up to the
 * first '.' is the layer ("ooo.run" belongs to "ooo").  Spans stay in
 * memory until writeChromeTrace() serializes them as Chrome Trace
 * Event "X" records sorted by start, the format `arl_sim validate`
 * checks.  Single-threaded: the traced run drives one call at a time.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        /** Static string: "<layer>.<what>". */
        const char *name = "";
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;

        double seconds() const { return (endNs - startNs) / 1e9; }
    };

    SpanRecorder();

    /** Open a span under the innermost open one; returns its index. */
    int begin(const char *name);
    /** Close span @p id, which must be the innermost open one. */
    void end(int id);

    const std::vector<Span> &spans() const { return all; }

    /**
     * Self seconds per layer over spans [@p first, @p last): each
     * span's duration minus its direct children's.
     */
    std::map<std::string, double> selfSecondsByLayer(std::size_t first,
                                                     std::size_t last) const;

    /** Summed seconds of spans named @p name in [@p first, @p last). */
    double seconds(const char *name, std::size_t first,
                   std::size_t last) const;

    /** Write every span as a Chrome trace; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

    /** Layer of @p name: its prefix up to the first '.'. */
    static std::string layerOf(const char *name);

  private:
    std::uint64_t nowNs() const;

    std::chrono::steady_clock::time_point origin;
    std::vector<Span> all;
    std::vector<int> open;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name)
        : rec(recorder), id(recorder.begin(name))
    {
    }
    ~ScopedSpan() { rec.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
