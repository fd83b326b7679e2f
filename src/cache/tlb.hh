/**
 * @file
 * TLB model with the paper's per-page stack bit (§4.2).
 *
 * Each entry is extended with one bit recording whether the
 * translated page belongs to the stack region; the bit is filled
 * from the run-time system's region map when the translation is
 * installed (the paper: "storing such information can be done
 * accurately and efficiently when a page is allocated by the
 * run-time system").  The data-decoupled pipeline verifies its
 * region prediction against this bit during address translation.
 */

#ifndef ARL_CACHE_TLB_HH
#define ARL_CACHE_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "vm/layout.hh"

namespace arl::obs
{
class StatsRegistry;
}

namespace arl::cache
{

/** Result of a translation. */
struct TlbResult
{
    bool hit = false;       ///< entry was resident
    bool stackPage = false; ///< the page's stack bit
};

/** Direct-mapped TLB with per-page stack bits. */
class Tlb
{
  public:
    /**
     * @param entries power-of-two entry count.
     * @param regions region map used to fill stack bits on refill.
     */
    Tlb(std::uint32_t entries, const vm::RegionMap &regions);

    /** Translate (and refill on miss). */
    TlbResult translate(Addr addr);

    /** One translation slot. */
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        bool stackBit = false;
    };

    /** The translation slots: all the state translate() changes apart
     *  from the statistics (the region map is not state). */
    const std::vector<Entry> &contents() const { return entries; }

    /** Replace every slot with @p contents (same entry count,
     *  asserted); statistics are left alone. */
    void restoreContents(const std::vector<Entry> &contents);

    // --- statistics ---
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /** Register hits/misses/miss-rate under "<prefix>.". */
    void registerStats(obs::StatsRegistry &registry,
                       const std::string &prefix) const;

  private:
    std::vector<Entry> entries;
    const vm::RegionMap &regions;
};

} // namespace arl::cache

#endif // ARL_CACHE_TLB_HH
