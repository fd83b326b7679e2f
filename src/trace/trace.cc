#include "trace/trace.hh"

#include <cstring>

#include "common/logging.hh"
#include "obs/profiler.hh"
#include "sim/simulator.hh"
#include "trace/format_v2.hh"

namespace arl::trace
{

namespace
{

/** Fixed-size file header. */
struct TraceHeader
{
    std::uint32_t magic;
    std::uint32_t version;
    char program[56];  // NUL-padded name
};

static_assert(sizeof(TraceHeader) == 64, "header must pack");

} // namespace

const char *
formatName(TraceFormat)
{
    return "v2";
}

TraceRecord
toRecord(const sim::StepInfo &step)
{
    TraceRecord record{};
    record.pc = step.pc;
    record.instWord = isa::encode(step.inst);
    record.effAddr = step.effAddr;
    record.gbh = step.gbh;
    record.cid = step.cid;
    record.result = step.result;
    record.storeValue = step.storeValue;
    record.flags = (step.branchTaken ? FlagTaken : 0) |
                   (step.isCall ? FlagCall : 0) |
                   (step.isReturn ? FlagReturn : 0);
    record.region = static_cast<std::uint8_t>(step.region);
    record.memSize = step.memSize;
    record.dest = step.dest;
    return record;
}

sim::StepInfo
fromRecord(const TraceRecord &record, InstCount seq)
{
    isa::DecodedInst inst;
    if (!isa::decode(record.instWord, inst))
        fatal("trace: undecodable instruction word 0x%08x",
              record.instWord);
    return fromRecord(record, seq, inst);
}

sim::StepInfo
fromRecord(const TraceRecord &record, InstCount seq,
           const isa::DecodedInst &inst)
{
    sim::StepInfo step;
    step.pc = record.pc;
    step.seq = seq;
    step.inst = inst;
    const isa::OpInfo &info = step.inst.info();
    step.isMem = info.isLoad || info.isStore;
    step.isLoad = info.isLoad;
    step.effAddr = record.effAddr;
    step.memSize = record.memSize;
    step.region = static_cast<vm::Region>(record.region);
    step.isBranch = info.isBranch;
    step.branchTaken = record.flags & FlagTaken;
    step.isCall = record.flags & FlagCall;
    step.isReturn = record.flags & FlagReturn;
    step.gbh = record.gbh;
    step.cid = record.cid;
    step.dest = record.dest;
    step.result = record.result;
    step.storeValue = record.storeValue;
    // nextPc is not persisted; §3 consumers do not read it.
    step.nextPc = record.pc + 4;
    return step;
}

RecordClass
classifyRecord(const TraceRecord &record)
{
    isa::DecodedInst inst;
    if (!isa::decode(record.instWord, inst))
        fatal("trace: undecodable instruction word 0x%08x",
              record.instWord);
    const isa::OpInfo &info = inst.info();
    RecordClass cls;
    cls.isLoad = info.isLoad;
    cls.isStore = info.isStore;
    cls.isMem = info.isLoad || info.isStore;
    cls.isBranch = info.isBranch;
    cls.taken = record.flags & FlagTaken;
    cls.region = record.region;
    return cls;
}

ArchCheckpoint
captureCheckpoint(const sim::Simulator &simulator, InstCount index,
                  std::uint64_t mem_digest)
{
    ArchCheckpoint cp;
    cp.index = index;
    cp.pc = simulator.process().pc;
    cp.gpr = simulator.process().gpr;
    cp.fpr = simulator.process().fpr;
    cp.memDigest = mem_digest;
    return cp;
}

TraceWriter::TraceWriter(const std::string &path_in,
                         const std::string &program,
                         InstCount block_records, bool non_fatal)
    : path(path_in), nonFatal(non_fatal)
{
    if (block_records == 0 || block_records > MaxBlockRecords) {
        fail("block size " + std::to_string(block_records) +
             " outside [1, " + std::to_string(MaxBlockRecords) + "]");
        return;
    }
    out.open(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        fail("cannot open for writing");
        return;
    }
    TraceHeader header{};
    header.magic = TraceMagic;
    header.version = TraceVersionV2;
    std::strncpy(header.program, program.c_str(),
                 sizeof(header.program) - 1);
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    body = std::make_unique<v2::Writer>(
        out, static_cast<std::uint32_t>(block_records));
}

void
TraceWriter::fail(const std::string &what)
{
    failed = true;
    if (!nonFatal)
        fatal("trace: '%s': %s", path.c_str(), what.c_str());
}

void
TraceWriter::append(const sim::StepInfo &step)
{
    appendRecord(toRecord(step));
}

void
TraceWriter::appendRecord(const TraceRecord &record)
{
    if (!failed)
        body->append(record);
}

void
TraceWriter::addCheckpoint(const ArchCheckpoint &checkpoint)
{
    if (body)
        body->addCheckpoint(checkpoint);
}

void
TraceWriter::close()
{
    if (out.is_open()) {
        if (!failed)
            body->finish(complete);
        fileBytes = static_cast<std::uint64_t>(out.tellp());
        out.close();
        if (!out || failed)
            fail("write error");
    }
}

TraceWriter::~TraceWriter()
{
    if (out.is_open()) {
        body->finish(complete);
        out.close();
    }
}

TraceReader::TraceReader(const std::string &path_in)
    : path(path_in), body(std::make_unique<v2::Reader>())
{
    std::string err;
    if (!body->open(path, err))
        fatal("trace: '%s': %s", path.c_str(), err.c_str());
}

TraceReader::~TraceReader() = default;

const std::string &
TraceReader::programName() const
{
    return body->program();
}

bool
TraceReader::next(sim::StepInfo &out_step)
{
    if (bufferPos >= buffer.size() && !fillBuffer())
        return false;
    out_step = fromRecord(buffer[bufferPos++], consumed++);
    return true;
}

bool
TraceReader::fillBuffer()
{
    if (nextBlock >= body->numBlocks())
        return false;
    buffer.clear();
    bufferPos = 0;
    std::string err;
    if (!body->readBlock(nextBlock, buffer, err))
        fatal("trace: '%s' block %zu: %s", path.c_str(), nextBlock,
              err.c_str());
    ++nextBlock;
    return true;
}

void
TraceReader::seek(InstCount n)
{
    const std::uint32_t block_records = body->blockRecords();
    const std::size_t block = static_cast<std::size_t>(n / block_records);
    buffer.clear();
    bufferPos = 0;
    if (n >= body->totalRecords() || block >= body->numBlocks()) {
        // Past the end: every subsequent read reports EOF.
        nextBlock = body->numBlocks();
        consumed = body->totalRecords();
        return;
    }
    nextBlock = block;
    if (!fillBuffer())
        fatal("trace: '%s': seek into missing block", path.c_str());
    bufferPos = static_cast<std::size_t>(n % block_records);
    consumed = n;
}

InstCount
recordTrace(std::shared_ptr<const vm::Program> program,
            const std::string &path, InstCount max_insts,
            std::uint32_t block_records)
{
    obs::ProfScope prof("record");
    if (block_records == 0)
        block_records = DefaultBlockRecords;
    TraceWriter writer(path, program->name, block_records);
    sim::Simulator simulator(std::move(program));
    v2::MemTouchDigest digest;
    sim::StepInfo step;
    InstCount n = 0;
    while (max_insts == 0 || n < max_insts) {
        if (n % block_records == 0 && !simulator.halted())
            writer.addCheckpoint(
                captureCheckpoint(simulator, n, digest.value()));
        if (!simulator.step(step))
            break;
        writer.append(step);
        digest.observe(step);
        ++n;
    }
    writer.setComplete(simulator.halted());
    writer.close();
    prof.addGuestInsts(n);
    return n;
}

} // namespace arl::trace
