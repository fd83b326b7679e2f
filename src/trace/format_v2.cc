#include "trace/format_v2.hh"

#include <cstring>
#include <vector>

#include "common/crc32.hh"
#include "isa/operands.hh"
#include "isa/registers.hh"
#include "trace/varint.hh"
#include "vm/layout.hh"

namespace arl::trace::v2
{

namespace
{

// Per-record tag byte.  The region pair encodes Data/Heap/Stack
// inline (resp. "default" for non-memory records); value 3 means an
// explicit region byte follows.  Escape carries the raw 32-byte
// record and admits no other bit.
constexpr std::uint8_t TagPcDelta = 0x01;
constexpr std::uint8_t TagInstWord = 0x02;
constexpr std::uint8_t TagTaken = 0x04;
constexpr unsigned TagRegionShift = 3;
constexpr std::uint8_t TagRegionMask = 0x18;
constexpr std::uint8_t TagGbh = 0x20;
constexpr std::uint8_t TagCid = 0x40;
constexpr std::uint8_t TagEscape = 0x80;

constexpr std::uint8_t RegionUnknown =
    static_cast<std::uint8_t>(vm::Region::Unknown);

/**
 * Block-scoped pc -> instruction-word elision map.
 *
 * A block holds at most `records` distinct pcs, so a linear-probed
 * table sized to twice that stays under 0.5 load and resolves each
 * find/put in one or two probes — the codec's inner loop does one of
 * each per record, and this replaces the node allocations and hash
 * buckets of the generic map.  Map *semantics* are identical, so the
 * encoder's emit decisions (and therefore the trace bytes) are
 * unchanged.
 */
class WordMap
{
  public:
    explicit WordMap(std::size_t records)
    {
        std::size_t cap = 16;
        while (cap < records * 2)
            cap <<= 1;
        mask = cap - 1;
        slots.resize(cap);
    }

    /** Word recorded for @p pc, or null when unseen. */
    Word *
    find(Addr pc)
    {
        for (std::size_t i = hash(pc);; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (!s.used)
                return nullptr;
            if (s.pc == pc)
                return &s.word;
        }
    }

    void
    put(Addr pc, Word word)
    {
        for (std::size_t i = hash(pc);; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (!s.used) {
                s.used = true;
                s.pc = pc;
                s.word = word;
                return;
            }
            if (s.pc == pc) {
                s.word = word;
                return;
            }
        }
    }

  private:
    struct Slot
    {
        Addr pc = 0;
        Word word = 0;
        bool used = false;
    };

    std::size_t
    hash(Addr pc) const
    {
        return static_cast<std::size_t>(
                   (static_cast<std::uint64_t>(pc) *
                    0x9E3779B97F4A7C15ull) >>
                   32) &
               mask;
    }

    std::vector<Slot> slots;
    std::size_t mask = 0;
};

void
advanceCommon(Context &ctx, const TraceRecord &rec)
{
    ctx.prevPc = rec.pc;
    if (rec.memSize)
        ctx.lastEffAddr = rec.effAddr;
}

/** advance() when the record's instruction is already decoded. */
void
advanceDecoded(Context &ctx, const TraceRecord &rec,
               const isa::DecodedInst &inst)
{
    advanceCommon(ctx, rec);
    // The functional simulator's exact recurrences: GBH shifts in
    // every conditional-branch outcome; CID tracks the last value
    // architecturally written to $ra.
    if (inst.info().isBranch)
        ctx.gbh = (ctx.gbh << 1) | ((rec.flags & FlagTaken) ? 1u : 0u);
    if (isa::instDest(inst) == static_cast<isa::FlatReg>(isa::reg::Ra))
        ctx.cid = rec.result;
}

/** Flags implied by the decoded instruction (+ the tag's taken bit). */
std::uint8_t
derivedFlags(const isa::DecodedInst &inst, bool taken)
{
    std::uint8_t flags = taken ? FlagTaken : 0;
    if (inst.op == isa::Opcode::Jal || inst.op == isa::Opcode::Jalr)
        flags |= FlagCall;
    if (inst.op == isa::Opcode::Jr && inst.rs == isa::reg::Ra)
        flags |= FlagReturn;
    return flags;
}

bool
getU32(ByteCursor &cur, std::uint32_t &out)
{
    std::uint64_t value = cur.getVarint();
    if (cur.failed() || value > 0xffffffffull)
        return false;
    out = static_cast<std::uint32_t>(value);
    return true;
}

void
encodeRecord(const TraceRecord &rec, Context &ctx, WordMap &words,
             std::string &out)
{
    isa::DecodedInst inst;
    const bool decoded = isa::decode(rec.instWord, inst);
    bool escape = !decoded;
    bool mem = false;
    bool store = false;
    std::uint8_t dest = isa::NoReg;
    if (!escape) {
        const isa::OpInfo &info = inst.info();
        mem = info.isLoad || info.isStore;
        store = info.isStore;
        dest = isa::instDest(inst);
        // Any field the decoder would reconstruct differently makes
        // the whole record explicit — losslessness over density.
        escape = rec.memSize != (mem ? info.memSize : 0) ||
                 rec.dest != dest ||
                 rec.flags != derivedFlags(inst, rec.flags & FlagTaken) ||
                 (!mem && rec.effAddr != 0) ||
                 (dest == isa::NoReg && rec.result != 0) ||
                 (!store && rec.storeValue != 0);
    }
    if (escape) {
        out.push_back(static_cast<char>(TagEscape));
        out.append(reinterpret_cast<const char *>(&rec), sizeof(rec));
        if (decoded)
            advanceDecoded(ctx, rec, inst);
        else
            advanceCommon(ctx, rec);
        return;
    }

    std::uint8_t tag = 0;
    const Addr expect_pc = ctx.prevPc + 4;
    if (rec.pc != expect_pc)
        tag |= TagPcDelta;
    Word *known = words.find(rec.pc);
    const bool emit_word = !known || *known != rec.instWord;
    if (emit_word)
        tag |= TagInstWord;
    if (rec.flags & FlagTaken)
        tag |= TagTaken;
    bool explicit_region = false;
    std::uint8_t rr;
    if (mem ? rec.region <= 2
            : (rec.region == RegionUnknown || rec.region == 1 ||
               rec.region == 2)) {
        rr = (!mem && rec.region == RegionUnknown) ? 0 : rec.region;
    } else {
        rr = 3;
        explicit_region = true;
    }
    tag |= static_cast<std::uint8_t>(rr << TagRegionShift);
    if (rec.gbh != ctx.gbh)
        tag |= TagGbh;
    if (rec.cid != ctx.cid)
        tag |= TagCid;

    out.push_back(static_cast<char>(tag));
    if (tag & TagPcDelta)
        putZigzag(out, static_cast<std::int64_t>(rec.pc) -
                           static_cast<std::int64_t>(expect_pc));
    if (emit_word) {
        putVarint(out, rec.instWord);
        words.put(rec.pc, rec.instWord);
    }
    if (tag & TagGbh)
        putVarint(out, rec.gbh);
    if (tag & TagCid)
        putVarint(out, rec.cid);
    if (explicit_region)
        out.push_back(static_cast<char>(rec.region));
    if (mem)
        putZigzag(out, static_cast<std::int64_t>(rec.effAddr) -
                           static_cast<std::int64_t>(ctx.lastEffAddr));
    if (dest != isa::NoReg)
        putVarint(out, rec.result);
    if (store)
        putVarint(out, rec.storeValue);
    advanceDecoded(ctx, rec, inst);
}

bool
decodeRecord(ByteCursor &cur, Context &ctx, WordMap &words,
             TraceRecord &rec, std::string &err)
{
    const std::uint8_t tag = cur.getByte();
    if (cur.failed()) {
        err = "truncated record tag";
        return false;
    }
    if (tag & TagEscape) {
        if (tag != TagEscape) {
            err = "escape tag with extra bits";
            return false;
        }
        if (!cur.getRaw(&rec, sizeof(rec))) {
            err = "truncated escape record";
            return false;
        }
        advance(ctx, rec);
        return true;
    }

    rec = TraceRecord{};
    Addr pc = ctx.prevPc + 4;
    if (tag & TagPcDelta)
        pc = static_cast<Addr>(static_cast<std::int64_t>(pc) +
                               cur.getZigzag());
    rec.pc = pc;
    if (tag & TagInstWord) {
        if (!getU32(cur, rec.instWord)) {
            err = "bad instruction word varint";
            return false;
        }
        words.put(pc, rec.instWord);
    } else {
        const Word *known = words.find(pc);
        if (!known) {
            err = "instruction word back-reference to unseen pc";
            return false;
        }
        rec.instWord = *known;
    }
    isa::DecodedInst inst;
    if (!isa::decode(rec.instWord, inst)) {
        err = "undecodable instruction word";
        return false;
    }
    rec.gbh = ctx.gbh;
    if ((tag & TagGbh) && !getU32(cur, rec.gbh)) {
        err = "bad gbh varint";
        return false;
    }
    rec.cid = ctx.cid;
    if ((tag & TagCid) && !getU32(cur, rec.cid)) {
        err = "bad cid varint";
        return false;
    }

    const isa::OpInfo &info = inst.info();
    const bool mem = info.isLoad || info.isStore;
    const std::uint8_t rr = (tag & TagRegionMask) >> TagRegionShift;
    if (rr == 3)
        rec.region = cur.getByte();
    else if (mem)
        rec.region = rr;
    else
        rec.region = rr ? rr : RegionUnknown;
    rec.memSize = mem ? info.memSize : 0;
    if (mem)
        rec.effAddr =
            static_cast<Addr>(static_cast<std::int64_t>(ctx.lastEffAddr) +
                              cur.getZigzag());
    rec.dest = isa::instDest(inst);
    if (rec.dest != isa::NoReg && !getU32(cur, rec.result)) {
        err = "bad result varint";
        return false;
    }
    if (info.isStore && !getU32(cur, rec.storeValue)) {
        err = "bad store value varint";
        return false;
    }
    rec.flags = derivedFlags(inst, tag & TagTaken);
    if (cur.failed()) {
        err = "truncated record fields";
        return false;
    }
    advanceDecoded(ctx, rec, inst);
    return true;
}

} // namespace

void
advance(Context &ctx, const TraceRecord &rec)
{
    isa::DecodedInst inst;
    if (isa::decode(rec.instWord, inst))
        advanceDecoded(ctx, rec, inst);
    else
        advanceCommon(ctx, rec);
}

void
encodeBlock(const TraceRecord *records, std::size_t n, Context &ctx,
            std::string &out)
{
    WordMap words(n);
    for (std::size_t i = 0; i < n; ++i)
        encodeRecord(records[i], ctx, words, out);
}

bool
decodeBlock(const void *payload, std::size_t bytes, std::size_t n,
            Context &ctx, std::vector<TraceRecord> &out,
            std::string &err)
{
    ByteCursor cur(payload, bytes);
    WordMap words(n);
    out.reserve(out.size() + n);
    TraceRecord rec{};
    for (std::size_t i = 0; i < n; ++i) {
        if (!decodeRecord(cur, ctx, words, rec, err))
            return false;
        out.push_back(rec);
    }
    if (!cur.atEnd()) {
        err = "trailing bytes after last record in block";
        return false;
    }
    return true;
}

Writer::Writer(std::ostream &out, std::uint32_t block_records)
    : out(out),
      blockRecords(block_records ? block_records : DefaultBlockRecords)
{
    Meta meta{};
    meta.blockRecords = blockRecords;
    out.write(reinterpret_cast<const char *>(&meta), sizeof(meta));
    pending.reserve(blockRecords);
}

void
Writer::append(const TraceRecord &rec)
{
    if (!ctxInit) {
        // Baselines chosen so the first record costs no deltas and
        // no explicit context bits; stored in the block-0 entry, so
        // the decoder sees the identical starting state.
        ctx.prevPc = rec.pc - 4;
        ctx.lastEffAddr = rec.memSize ? rec.effAddr : 0;
        ctx.gbh = rec.gbh;
        ctx.cid = rec.cid;
        ctxInit = true;
    }
    pending.push_back(rec);
    if (pending.size() >= blockRecords)
        flushBlock();
}

void
Writer::addCheckpoint(const ArchCheckpoint &cp)
{
    checkpoints[cp.index] = cp;
}

void
Writer::flushBlock()
{
    if (pending.empty())
        return;
    IndexEntry entry{};
    entry.offset = static_cast<std::uint64_t>(out.tellp());
    entry.firstRecord = written;
    entry.prevPc = ctx.prevPc;
    entry.lastEffAddr = ctx.lastEffAddr;
    entry.gbh = ctx.gbh;
    entry.cid = ctx.cid;
    auto cp = checkpoints.find(written);
    if (cp != checkpoints.end()) {
        entry.hasArch = 1;
        entry.archPc = cp->second.pc;
        std::memcpy(entry.gpr, cp->second.gpr.data(),
                    sizeof(entry.gpr));
        std::memcpy(entry.fpr, cp->second.fpr.data(),
                    sizeof(entry.fpr));
        entry.memDigest = cp->second.memDigest;
    }

    std::string payload;
    payload.reserve(pending.size() * 4);
    encodeBlock(pending.data(), pending.size(), ctx, payload);

    BlockHeader header{};
    header.magic = BlockMagic;
    header.records = static_cast<std::uint32_t>(pending.size());
    header.payloadBytes = static_cast<std::uint32_t>(payload.size());
    header.payloadCrc = crc32(payload.data(), payload.size());
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));

    written += pending.size();
    entries.push_back(entry);
    pending.clear();
}

void
Writer::finish(bool complete)
{
    if (finished)
        return;
    finished = true;
    flushBlock();

    IndexHeader index{};
    index.magic = IndexMagic;
    index.entryBytes = sizeof(IndexEntry);
    index.count = entries.size();
    const auto index_offset = static_cast<std::uint64_t>(out.tellp());
    out.write(reinterpret_cast<const char *>(&index), sizeof(index));
    out.write(reinterpret_cast<const char *>(entries.data()),
              static_cast<std::streamsize>(entries.size() *
                                           sizeof(IndexEntry)));

    Trailer trailer{};
    trailer.indexOffset = index_offset;
    trailer.totalRecords = written;
    trailer.indexCrc =
        crc32(entries.data(), entries.size() * sizeof(IndexEntry));
    trailer.flags = complete ? FlagComplete : 0;
    trailer.magic = TrailerMagic;
    out.write(reinterpret_cast<const char *>(&trailer),
              sizeof(trailer));
}

bool
Reader::open(const std::string &path, std::string &err)
{
    in.open(path, std::ios::binary | std::ios::ate);
    if (!in) {
        err = "cannot open file";
        return false;
    }
    fileSize = static_cast<std::uint64_t>(in.tellg());
    constexpr std::uint64_t MinSize = 64 + sizeof(Meta) +
                                      sizeof(IndexHeader) +
                                      sizeof(Trailer);
    if (fileSize < MinSize) {
        err = "not an ARL trace (too small)";
        return false;
    }

    char header[64] = {};
    in.seekg(0);
    in.read(header, sizeof(header));
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::memcpy(&magic, header, 4);
    std::memcpy(&version, header + 4, 4);
    if (!in || magic != TraceMagic) {
        err = "not an ARL trace (bad magic)";
        return false;
    }
    if (version != TraceVersionV2) {
        err = "unsupported trace version (only v2 is read)";
        return false;
    }
    header[63] = '\0';
    name = header + 8;

    in.read(reinterpret_cast<char *>(&meta), sizeof(meta));
    if (!in || meta.blockRecords == 0 ||
        meta.blockRecords > MaxBlockRecords) {
        err = "bad v2 meta";
        return false;
    }

    in.seekg(static_cast<std::streamoff>(fileSize - sizeof(Trailer)));
    in.read(reinterpret_cast<char *>(&trailer), sizeof(trailer));
    if (!in || trailer.magic != TrailerMagic) {
        err = "bad trailer magic";
        return false;
    }

    // The index must sit exactly between the last block and the
    // trailer; any disagreement between trailer, index header, and
    // file size is corruption.
    const std::uint64_t blocks_expected =
        (trailer.totalRecords + meta.blockRecords - 1) /
        meta.blockRecords;
    const std::uint64_t index_end = fileSize - sizeof(Trailer);
    if (trailer.indexOffset < 64 + sizeof(Meta) ||
        trailer.indexOffset + sizeof(IndexHeader) > index_end) {
        err = "index offset out of range";
        return false;
    }
    IndexHeader index{};
    in.seekg(static_cast<std::streamoff>(trailer.indexOffset));
    in.read(reinterpret_cast<char *>(&index), sizeof(index));
    if (!in || index.magic != IndexMagic ||
        index.entryBytes != sizeof(IndexEntry) ||
        index.count != blocks_expected ||
        trailer.indexOffset + sizeof(IndexHeader) +
                index.count * sizeof(IndexEntry) !=
            index_end) {
        err = "bad index header";
        return false;
    }
    // Every encoded record spends at least its tag byte, so the block
    // bytes bound the record count a loader may reserve memory for.
    const std::uint64_t block_bytes =
        trailer.indexOffset - (64 + sizeof(Meta));
    if (index.count * sizeof(BlockHeader) > block_bytes ||
        trailer.totalRecords >
            block_bytes - index.count * sizeof(BlockHeader)) {
        err = "record count exceeds the block bytes";
        return false;
    }

    entries.resize(static_cast<std::size_t>(index.count));
    in.read(reinterpret_cast<char *>(entries.data()),
            static_cast<std::streamsize>(entries.size() *
                                         sizeof(IndexEntry)));
    if (!in) {
        err = "truncated index";
        return false;
    }
    if (crc32(entries.data(), entries.size() * sizeof(IndexEntry)) !=
        trailer.indexCrc) {
        err = "index CRC mismatch";
        return false;
    }
    for (std::size_t b = 0; b < entries.size(); ++b) {
        const std::uint64_t min_offset = 64 + sizeof(Meta);
        if (entries[b].firstRecord !=
                static_cast<std::uint64_t>(b) * meta.blockRecords ||
            entries[b].offset < min_offset ||
            entries[b].offset + sizeof(BlockHeader) >
                trailer.indexOffset ||
            (b && entries[b].offset <= entries[b - 1].offset)) {
            err = "bad index entry";
            return false;
        }
    }
    return true;
}

bool
Reader::readBlock(std::size_t b, std::vector<TraceRecord> &out,
                  std::string &err)
{
    if (b >= entries.size()) {
        err = "block out of range";
        return false;
    }
    const IndexEntry &entry = entries[b];
    BlockHeader header{};
    in.clear();
    in.seekg(static_cast<std::streamoff>(entry.offset));
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    const std::size_t expect = recordsInBlock(b);
    if (!in || header.magic != BlockMagic ||
        header.records != expect ||
        entry.offset + sizeof(BlockHeader) + header.payloadBytes >
            trailer.indexOffset) {
        err = "bad block header";
        return false;
    }
    std::string payload(header.payloadBytes, '\0');
    in.read(payload.data(),
            static_cast<std::streamsize>(payload.size()));
    if (!in) {
        err = "truncated block payload";
        return false;
    }
    if (crc32(payload.data(), payload.size()) != header.payloadCrc) {
        err = "block CRC mismatch";
        return false;
    }
    Context ctx;
    ctx.prevPc = entry.prevPc;
    ctx.lastEffAddr = entry.lastEffAddr;
    ctx.gbh = entry.gbh;
    ctx.cid = entry.cid;
    if (!decodeBlock(payload.data(), payload.size(), expect, ctx, out,
                     err))
        return false;
    if (b + 1 < entries.size()) {
        Context next;
        next.prevPc = entries[b + 1].prevPc;
        next.lastEffAddr = entries[b + 1].lastEffAddr;
        next.gbh = entries[b + 1].gbh;
        next.cid = entries[b + 1].cid;
        if (!(ctx == next)) {
            err = "decode context discontinuity between blocks";
            return false;
        }
    }
    return true;
}

std::vector<ArchCheckpoint>
Reader::archCheckpoints() const
{
    std::vector<ArchCheckpoint> cps;
    for (const IndexEntry &entry : entries) {
        if (!entry.hasArch)
            continue;
        ArchCheckpoint cp;
        cp.index = entry.firstRecord;
        cp.pc = entry.archPc;
        std::memcpy(cp.gpr.data(), entry.gpr, sizeof(entry.gpr));
        std::memcpy(cp.fpr.data(), entry.fpr, sizeof(entry.fpr));
        cp.memDigest = entry.memDigest;
        cps.push_back(cp);
    }
    return cps;
}

} // namespace arl::trace::v2
