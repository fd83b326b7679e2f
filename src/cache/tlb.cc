#include "cache/tlb.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/stats_registry.hh"

namespace arl::cache
{

Tlb::Tlb(std::uint32_t entry_count, const vm::RegionMap &regions_in)
    : entries(entry_count), regions(regions_in)
{
    ARL_ASSERT(isPowerOf2(entry_count), "TLB entries must be 2^n");
}

TlbResult
Tlb::translate(Addr addr)
{
    Addr vpn = addr >> vm::layout::PageShift;
    Entry &entry = entries[vpn & (entries.size() - 1)];
    TlbResult result;
    if (entry.valid && entry.vpn == vpn) {
        ++hits;
        result.hit = true;
        result.stackPage = entry.stackBit;
        return result;
    }
    ++misses;
    entry.valid = true;
    entry.vpn = vpn;
    entry.stackBit = regions.isStack(addr);
    result.hit = false;
    result.stackPage = entry.stackBit;
    return result;
}

void
Tlb::restoreContents(const std::vector<Entry> &contents)
{
    ARL_ASSERT(contents.size() == entries.size(),
               "TLB: restoring %zu entries into %zu", contents.size(),
               entries.size());
    entries = contents;
}

void
Tlb::registerStats(obs::StatsRegistry &registry,
                   const std::string &prefix) const
{
    registry.addCounter(prefix + ".hits", &hits, "TLB hits");
    registry.addCounter(prefix + ".misses", &misses, "TLB misses");
    registry.addFormula(
        prefix + ".miss_rate_pct",
        [this] {
            std::uint64_t total = hits + misses;
            return total ? 100.0 * static_cast<double>(misses) /
                               static_cast<double>(total)
                         : 0.0;
        },
        "TLB miss rate (0 when idle)");
}

} // namespace arl::cache
