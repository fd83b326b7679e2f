/**
 * @file
 * Per-static-instruction access-region profiling (paper §3.2, Fig 2).
 *
 * For every static memory instruction (identified by PC) the profiler
 * records the *set* of regions it touched and its dynamic reference
 * count.  Instructions are then classified into the paper's seven
 * classes: D, H, S (single-region) and D/H, D/S, H/S, D/H/S
 * (multi-region).
 */

#ifndef ARL_PROFILE_REGION_PROFILER_HH
#define ARL_PROFILE_REGION_PROFILER_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.hh"
#include "sim/step_info.hh"
#include "vm/layout.hh"

namespace arl::profile
{

/** The paper's seven region classes, Fig 2 order. */
enum class RegionClass : std::uint8_t
{
    D = 0,    ///< data only
    H,        ///< heap only
    S,        ///< stack only
    DH,       ///< data and heap
    DS,       ///< data and stack
    HS,       ///< heap and stack
    DHS,      ///< all three
    NumClasses
};

/** Number of region classes. */
constexpr unsigned NumRegionClasses =
    static_cast<unsigned>(RegionClass::NumClasses);

/** Display name ("D", "D/H", ...). */
std::string regionClassName(RegionClass cls);

/** Map a region-set bitmask (bit0=D, bit1=H, bit2=S) to its class. */
RegionClass regionClassFromMask(unsigned mask);

/** Aggregated profile of one program run. */
struct RegionProfile
{
    /** Static instruction count per class. */
    std::array<std::uint64_t, NumRegionClasses> staticCounts{};
    /** Dynamic reference count per class. */
    std::array<std::uint64_t, NumRegionClasses> dynamicCounts{};
    /** Dynamic reference count per region (D/H/S). */
    std::array<std::uint64_t, vm::NumDataRegions> regionRefs{};

    std::uint64_t totalInstructions = 0;  ///< all dynamic instructions
    std::uint64_t dynamicLoads = 0;
    std::uint64_t dynamicStores = 0;

    /** Total static memory instructions observed. */
    std::uint64_t staticTotal() const;
    /** Total dynamic memory references. */
    std::uint64_t dynamicTotal() const;
    /** Static instructions touching >1 region. */
    std::uint64_t staticMultiRegion() const;
    /** Dynamic references from multi-region instructions. */
    std::uint64_t dynamicMultiRegion() const;
    /** Fraction (0..100) helpers for reports. */
    double staticMultiRegionPct() const;
    double dynamicMultiRegionPct() const;
};

/**
 * Observes a functional-simulation run and produces a RegionProfile.
 * Feed every StepInfo to observe(); call profile() at the end.
 */
class RegionProfiler
{
  public:
    /** Record one executed instruction. */
    void
    observe(const sim::StepInfo &step)
    {
        ++instructions;
        if (!step.isMem)
            return;
        if (step.isLoad)
            ++loads;
        else
            ++stores;
        unsigned region_bit = regionBit(step.region);
        PcInfo &info = perPc[step.pc];
        info.mask |= region_bit;
        ++info.dynamicRefs;
        ++regionRefs[regionIndex(step.region)];
    }

    /** Aggregate everything observed so far (walks the per-PC map). */
    RegionProfile profile() const;

    /** Running totals, O(1): cheap enough for every heartbeat. */
    std::uint64_t instructionCount() const { return instructions; }
    std::uint64_t dynamicLoads() const { return loads; }
    std::uint64_t dynamicStores() const { return stores; }
    std::uint64_t refs(unsigned region) const { return regionRefs[region]; }

    /** Region-set mask of one static instruction (0 if never seen). */
    unsigned maskForPc(Addr pc) const;

  private:
    struct PcInfo
    {
        unsigned mask = 0;
        std::uint64_t dynamicRefs = 0;
    };

    static unsigned
    regionBit(vm::Region region)
    {
        return 1u << regionIndex(region);
    }

    static unsigned
    regionIndex(vm::Region region)
    {
        return static_cast<unsigned>(region);
    }

    std::unordered_map<Addr, PcInfo> perPc;
    std::array<std::uint64_t, vm::NumDataRegions> regionRefs{};
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

} // namespace arl::profile

#endif // ARL_PROFILE_REGION_PROFILER_HH
