/**
 * @file
 * Binary instruction-trace recording and replay.
 *
 * The 1990s methodology the paper's toolchain supported: run the
 * functional simulator once, persist the dynamic instruction stream,
 * then drive any number of analyses (profilers, predictors) from the
 * file without re-executing.  Every §3 consumer in this repository
 * reads sim::StepInfo, so a replayed trace is a drop-in substitute
 * for a live simulation.
 *
 * The on-disk format is ARLT v2 (format_v2.hh): a 64-byte header
 * (little-endian magic, version 2, program name), then delta+varint
 * records packed into CRC-guarded fixed-count blocks, then a seekable
 * footer index carrying per-block decode context and optional
 * architectural checkpoints.  Files are typically >=4x smaller than
 * the 32-byte in-memory TraceRecords they decode to bit-identically.
 *
 * Records carry everything the profilers and predictors consume —
 * PC, the encoded instruction word (re-decoded on read), effective
 * address, region, fetch-time GBH/CID context, and produced values.
 * Traces are bit-reproducible: recording the same program twice
 * yields identical files.
 */

#ifndef ARL_TRACE_TRACE_HH
#define ARL_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/step_info.hh"
#include "vm/program.hh"

namespace arl::sim
{
class Simulator;
}

namespace arl::trace
{

/** File magic: "ARLT". */
constexpr std::uint32_t TraceMagic = 0x544c5241;
/** Format version (delta+varint blocks + footer index). */
constexpr std::uint32_t TraceVersionV2 = 2;

/** The on-disk encoding; v2 is the only one. */
enum class TraceFormat : std::uint32_t
{
    V2 = TraceVersionV2,
};

/** Printable name ("v2") of @p format; part of trace-cache keys. */
const char *formatName(TraceFormat format);

/**
 * Records per v2 block — also the architectural-checkpoint cadence
 * of recordToMemory(), so every persisted checkpoint lands on a
 * seekable block boundary.
 */
constexpr std::uint32_t DefaultBlockRecords = 1u << 16;

/** Largest v2 block size the writer emits and the reader accepts. */
constexpr std::uint32_t MaxBlockRecords = 1u << 24;

/** TraceRecord::flags bits. */
constexpr std::uint8_t FlagTaken = 1 << 0;
constexpr std::uint8_t FlagCall = 1 << 1;
constexpr std::uint8_t FlagReturn = 1 << 2;

/**
 * Architectural state captured at a block boundary while recording:
 * enough to identify (register file, PC) and validate (memory-touch
 * digest) the functional state a checkpointed fast-forward resumes
 * from, without replaying the prefix.
 */
struct ArchCheckpoint
{
    /** Dynamic record index the state holds at (pre-execution). */
    InstCount index = 0;
    /** Functional PC. */
    Addr pc = 0;
    /** Integer register file. */
    std::array<Word, 32> gpr{};
    /** FP register file. */
    std::array<Word, 32> fpr{};
    /** FNV-1a digest over memory touches of records [0, index). */
    std::uint64_t memDigest = 0;
};

/** On-disk record; fixed 32 bytes. */
struct TraceRecord
{
    std::uint32_t pc;
    std::uint32_t instWord;    ///< encoded instruction (re-decoded)
    std::uint32_t effAddr;
    std::uint32_t gbh;
    std::uint32_t cid;
    std::uint32_t result;
    std::uint32_t storeValue;
    std::uint8_t flags;        ///< bit0 taken, bit1 call, bit2 return
    std::uint8_t region;       ///< vm::Region (or Unknown if not mem)
    std::uint8_t memSize;
    std::uint8_t dest;         ///< flat destination register or NoReg
};

static_assert(sizeof(TraceRecord) == 32, "trace record must pack");

/** Convert a live step into a record. */
TraceRecord toRecord(const sim::StepInfo &step);

/**
 * Reconstitute a step.  @p seq restores the dynamic sequence number
 * (records do not store it — it is implicit in file position).
 */
sim::StepInfo fromRecord(const TraceRecord &record, InstCount seq);

/**
 * Reconstitute a step from a record whose instruction word has
 * already been decoded into @p inst (the replay hot path: predecoded
 * traces skip the per-record isa::decode entirely).  @p inst must be
 * the decoding of record.instWord.
 */
sim::StepInfo fromRecord(const TraceRecord &record, InstCount seq,
                         const isa::DecodedInst &inst);

/**
 * Cheap per-record classification for fast functional passes that
 * only need the instruction's kind, not a full StepInfo (e.g. the
 * phase-sampling feature extractor walks millions of records and
 * wants one table lookup per record, not a reconstitution).
 */
struct RecordClass
{
    bool isMem = false;
    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    bool taken = false;
    /** vm::Region of the access (Unknown when not a data access). */
    std::uint8_t region = 0;
};

/** Classify @p record; fatal on an undecodable instruction word. */
RecordClass classifyRecord(const TraceRecord &record);

/**
 * The architectural checkpoint of @p simulator before it executes
 * record @p index; @p mem_digest is the v2::MemTouchDigest of records
 * [0, index).  The one capture behind recordTrace() and
 * recordToMemory().
 */
ArchCheckpoint captureCheckpoint(const sim::Simulator &simulator,
                                 InstCount index,
                                 std::uint64_t mem_digest);

namespace v2
{
class Reader;
class Writer;
}

/** Streams retired instructions to a trace file. */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * Fatal on I/O errors (user environment problem) and on a
     * block size outside [1, MaxBlockRecords] unless @p non_fatal is
     * set, in which case errors — at open, append, or close time —
     * latch ok() to false instead and the caller decides
     * (opportunistic writers like the sweep's trace cache must not
     * abort the run over a full disk).
     * @param block_records records per v2 block.
     */
    TraceWriter(const std::string &path, const std::string &program,
                InstCount block_records = DefaultBlockRecords,
                bool non_fatal = false);

    /** Append one instruction. */
    void append(const sim::StepInfo &step);

    /** Append one already-converted record (bulk/cached writers). */
    void appendRecord(const TraceRecord &record);

    /**
     * Attach an architectural checkpoint.  Only checkpoints whose
     * index lands on a block boundary are persisted in the footer
     * index.
     */
    void addCheckpoint(const ArchCheckpoint &checkpoint);

    /** Mark the trace as covering the complete execution. */
    void setComplete(bool value) { complete = value; }

    /** Flush and close (also done by the destructor). */
    void close();

    /** On-disk size; valid once close() has run. */
    std::uint64_t bytesWritten() const { return fileBytes; }

    /** False once a non-fatal writer has hit an I/O error. */
    bool ok() const { return !failed; }

    ~TraceWriter();

  private:
    /** Latch ok() to false; fatal unless the writer is non-fatal. */
    void fail(const std::string &what);

    std::ofstream out;
    std::string path;
    std::unique_ptr<v2::Writer> body;  ///< null when open failed
    std::uint64_t fileBytes = 0;
    bool complete = false;
    bool nonFatal = false;
    bool failed = false;
};

/**
 * Reads a trace file back as a StepInfo stream, and seeks to an
 * arbitrary record without decoding the prefix beyond the
 * containing block.
 */
class TraceReader
{
  public:
    /** Open @p path; fatal on missing/corrupt files. */
    explicit TraceReader(const std::string &path);

    ~TraceReader();

    /**
     * Read the next instruction.
     * @return false at end of trace.
     */
    bool next(sim::StepInfo &out);

    /**
     * Position the stream so the next record read is record @p n;
     * decodes only the containing block.
     */
    void seek(InstCount n);

    /** Program name recorded in the header. */
    const std::string &programName() const;

  private:
    bool fillBuffer();

    std::string path;
    InstCount consumed = 0;  ///< index of the next record to be read
    std::unique_ptr<v2::Reader> body;
    std::vector<TraceRecord> buffer;  ///< decoded block
    std::size_t bufferPos = 0;
    std::size_t nextBlock = 0;
};

/**
 * Convenience: run @p program functionally and stream the trace to
 * @p path, with an architectural checkpoint at every block boundary.
 * @return instructions recorded.
 */
InstCount recordTrace(std::shared_ptr<const vm::Program> program,
                      const std::string &path, InstCount max_insts = 0,
                      std::uint32_t block_records = DefaultBlockRecords);

} // namespace arl::trace

#endif // ARL_TRACE_TRACE_HH
