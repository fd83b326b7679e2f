/**
 * @file
 * The traced run: the same grid runSweep executes, driven by calling
 * each layer's public functions directly with a span around every
 * call, followed by short probes of the layers the grid does not
 * reach, so every per-layer metric is measured on every workload.
 *
 * The traced grid must reproduce runSweep's simulated stats exactly;
 * main.cc compares its point digests with the untraced sweep's.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <map>
#include <string>
#include <vector>

#include "runner/digest.hh"
#include "runner/spans.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

/** Work counts of one traced iteration (the per-layer denominators). */
struct LayerCounts
{
    std::uint64_t recorded = 0;      ///< sim.record records
    std::uint64_t decoded = 0;       ///< trace.decode records
    std::uint64_t replayed = 0;      ///< trace.replay records
    std::uint64_t traceBytes = 0;    ///< in-memory bytes of the traces
    std::uint64_t traceRecords = 0;  ///< records of those traces
    std::uint64_t warmupInsts = 0;   ///< ooo.warmup instructions
    std::uint64_t runInsts = 0;      ///< ooo.run instructions
    std::uint64_t sampleInsts = 0;   ///< ooo.sample detailed instructions
    std::uint64_t cycles = 0;        ///< cycles of ooo.run + ooo.sample
    std::uint64_t idealAccesses = 0;      ///< cache.ideal accesses
    std::uint64_t contendedAccesses = 0;  ///< cache.contended accesses
    std::uint64_t predictObserves = 0;    ///< predictor observe() calls
    std::uint64_t arptOps = 0;            ///< predict.arpt predict+update
    std::uint64_t profileSteps = 0;       ///< profile.observe steps
    std::uint64_t detailInsts = 0;   ///< sampling plans' detailed insts
};

/** Output of one traced iteration. */
struct TracedIteration
{
    /** Digests of the traced grid's points (runSweep order). */
    std::vector<PointDigest> digests;
    LayerCounts counts;
    /** Span index range of the grid (root "sweep.grid"). */
    std::size_t gridFirst = 0, gridLast = 0;
    /** Span index range of the whole iteration (grid + probes). */
    std::size_t first = 0, last = 0;
};

/**
 * Run @p spec's grid through direct layer calls, then the probes.
 * @p corpus_dir feeds the assembler probe; @p scratch_dir holds the
 * codec probe's temporary file.
 */
TracedIteration runTraced(const arl::sweep::SweepSpec &spec,
                          SpanRecorder &rec,
                          const std::string &corpus_dir,
                          const std::string &scratch_dir);

/**
 * Per-layer metrics of one iteration.  @p untraced_wall is the
 * runSweep wall time of the same grid and @p report_s the obs report
 * time measured on its result.
 */
std::map<std::string, double>
layerMetrics(const SpanRecorder &rec, const TracedIteration &it,
             double untraced_wall, double report_s);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
