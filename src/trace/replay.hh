/**
 * @file
 * In-memory instruction traces and concurrent trace replay.
 *
 * The parallel sweep engine records each workload's dynamic
 * instruction stream once and replays it into many timing/profiling
 * jobs at once.  An InMemoryTrace is the shareable artifact: an
 * immutable vector of on-disk-format TraceRecords that any number of
 * ReplaySources can walk concurrently, each with its own cursor
 * (readers never mutate the trace, so no synchronisation is needed).
 *
 * Traces can round-trip through the ARLT file format of trace.hh:
 * saveTrace()/loadTrace() implement the sweep engine's on-disk trace
 * cache (--trace-cache), keyed by file name; recording is
 * bit-reproducible, so a cache hit is byte-equivalent to a fresh
 * recording.
 */

#ifndef ARL_TRACE_REPLAY_HH
#define ARL_TRACE_REPLAY_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/step_source.hh"
#include "trace/trace.hh"
#include "vm/program.hh"

namespace arl::trace
{

/** An immutable recorded instruction stream, shareable across threads. */
struct InMemoryTrace
{
    /** Name of the traced program (TraceHeader::program). */
    std::string program;
    /** One record per retired instruction, in program order. */
    std::vector<TraceRecord> records;
    /**
     * Architectural checkpoints captured every checkpointEvery
     * records while recording (none on hand-built traces).  Sorted
     * by index; checkpointed fast-forward seeks to the nearest one at
     * or below its target.
     */
    std::vector<ArchCheckpoint> checkpoints;
    /** Checkpoint cadence (also the block size when saved). */
    InstCount checkpointEvery = 0;
    /**
     * True when the program halted within the recorded window (the
     * trace covers the complete execution, not a truncated prefix).
     */
    bool complete = false;
    /**
     * Predecoded instruction words, parallel to `records` (empty on
     * hand-built traces).  Built once by predecode() — recording and
     * cache loading both call it — and shared read-only by every
     * ReplaySource, so an N-job sweep decodes each record once
     * instead of N times.
     */
    std::vector<isa::DecodedInst> decoded;

    /** Populate `decoded` from `records` (fatal on undecodable
     *  words, like fromRecord).  Idempotent. */
    void predecode();

    InstCount size() const { return records.size(); }

    /**
     * Largest checkpoint index at or below @p n (0 when there is no
     * such checkpoint — replay then starts from the beginning).
     */
    InstCount
    checkpointAtOrBelow(InstCount n) const
    {
        InstCount best = 0;
        for (const ArchCheckpoint &cp : checkpoints) {
            if (cp.index > n)
                break;
            best = cp.index;
        }
        return best;
    }
};

/**
 * Run @p program functionally and record the stream into memory,
 * capturing an architectural checkpoint every @p checkpoint_every
 * records (0 disables capture).
 * @param max_insts instruction cap (0 = to completion).
 */
std::shared_ptr<const InMemoryTrace>
recordToMemory(std::shared_ptr<const vm::Program> program,
               InstCount max_insts = 0,
               InstCount checkpoint_every = DefaultBlockRecords);

/**
 * Write @p t to @p path in the ARLT format: trySaveTrace(), but
 * fatal on I/O errors.  t.checkpoints go into the footer index,
 * with t.checkpointEvery as the block size so boundaries coincide.
 * @param format the encoding; V2 is the only one.
 * @return bytes written.
 */
std::uint64_t saveTrace(const std::string &path, const InMemoryTrace &t,
                        TraceFormat format = TraceFormat::V2);

/**
 * Non-fatal saveTrace() for opportunistic writers (the sweep's trace
 * cache): an unopenable path, a block size the reader would refuse,
 * or a mid-write I/O error (disk full, revoked permissions) returns
 * false — after unlinking whatever partial file was created —
 * instead of aborting the run.
 * @param out_bytes bytes written, valid only on success.
 */
bool trySaveTrace(const std::string &path, const InMemoryTrace &t,
                  std::uint64_t &out_bytes);

/** Optional observability for loadTrace(). */
struct TraceLoadStats
{
    std::uint64_t fileBytes = 0;  ///< on-disk size
    double seconds = 0.0;         ///< wall time spent loading
};

/**
 * Load an ARLT file recorded by saveTrace() / `arl_sim record`.
 * Checkpoints are validated against the decoded stream (PC and
 * memory-touch digest) before they are trusted.
 * @return null when @p path does not exist or is not a valid trace
 *         (corrupt caches fall back to re-recording, they never
 *         abort the run).
 */
std::shared_ptr<const InMemoryTrace>
loadTrace(const std::string &path, TraceLoadStats *stats = nullptr);

/**
 * StepSource that replays an InMemoryTrace.
 *
 * Thread-safe by construction: the trace is shared and immutable,
 * the cursor is per-source.  Replaying a trace into an OooCore
 * yields bit-identical timing to feeding the core from a live
 * functional simulator (asserted by tests/test_differential.cc).
 */
class ReplaySource final : public sim::StepSource
{
  public:
    explicit ReplaySource(std::shared_ptr<const InMemoryTrace> trace)
        : trace(std::move(trace))
    {
    }

    bool
    next(sim::StepInfo &out) override
    {
        if (pos >= trace->records.size())
            return false;
        // Predecoded fast path; per-record isa::decode otherwise.
        if (pos < trace->decoded.size())
            out = fromRecord(trace->records[pos], pos,
                             trace->decoded[pos]);
        else
            out = fromRecord(trace->records[pos], pos);
        ++pos;
        return true;
    }

    InstCount delivered() const override { return pos; }

    bool
    exhausted() const override
    {
        return pos >= trace->records.size();
    }

    /**
     * Reposition so the next record delivered is record @p n — the
     * checkpointed fast-forward: records before @p n are never
     * decoded into StepInfos.  delivered() counts the skipped
     * prefix, exactly as if it had been consumed.
     */
    bool
    seekTo(InstCount n) override
    {
        pos = static_cast<std::size_t>(
            std::min<InstCount>(n, trace->records.size()));
        return true;
    }

  private:
    std::shared_ptr<const InMemoryTrace> trace;
    std::size_t pos = 0;
};

} // namespace arl::trace

#endif // ARL_TRACE_REPLAY_HH
