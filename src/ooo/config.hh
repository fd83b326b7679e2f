/**
 * @file
 * Machine configuration for the out-of-order timing model, mirroring
 * the paper's Table 4, plus named presets for every configuration
 * point of Figure 8.
 *
 * An "(N+M)" configuration has an N-port data cache and an M-port
 * LVC; M = 0 is the conventional design with a unified 128-entry
 * LSQ, M > 0 is the data-decoupled design with 96-entry LSQ and
 * 96-entry LVAQ steered by a 32K-entry ARPT (PC xor {8 GBH bits,
 * 7 CID bits}).
 */

#ifndef ARL_OOO_CONFIG_HH
#define ARL_OOO_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "predict/arpt.hh"

namespace arl::ooo
{

/**
 * CLI/bench-facing bundle of memory-backend contention knobs.
 *
 * Applied onto a MachineConfig via applyContention(); every zero
 * default keeps the historical ideal behaviour (and the committed
 * golden reports) intact.  `banks` configures both the L1 D-cache
 * and the LVC, matching how the paper scales both structures with
 * port count.
 */
struct ContentionKnobs
{
    unsigned banks = 0;          ///< L1 + LVC bank count (0 = ideal)
    unsigned mshrs = 0;          ///< MSHRs per structure (0 = unlimited)
    unsigned wbBuffer = 0;       ///< writeback buffer depth (0 = infinite)
    unsigned busCycles = 0;      ///< bus cycles per transfer (0 = infinite bw)
    unsigned tlbMissLatency = 0; ///< cycles charged per TLB miss

    bool any() const
    {
        return banks || mshrs || wbBuffer || busCycles ||
               tlbMissLatency;
    }

    /**
     * Config-name suffix encoding the active knobs, e.g.
     * "+b4m8w4u2t30" for banks 4 / MSHRs 8 / wb buffer 4 / bus 2 /
     * TLB 30.  Empty while all knobs are zero, so ideal config names
     * never change.
     */
    std::string suffix() const;
};

/** Full machine configuration (Table 4 defaults). */
struct MachineConfig
{
    std::string name = "base";

    // Core.
    unsigned issueWidth = 16;   ///< also decode and commit width
    unsigned robSize = 256;

    // Functional units.
    unsigned intAlus = 16;
    unsigned fpAlus = 16;
    unsigned intMuls = 4;
    unsigned fpMuls = 4;

    // Memory queues.
    bool decoupled = false;     ///< split LSQ + LVAQ?
    unsigned lsqSize = 128;     ///< unified LSQ (conventional)
    unsigned lsqSizeDecoupled = 96;
    unsigned lvaqSize = 96;

    // Cache ports (per cycle).
    unsigned dcachePorts = 2;
    unsigned lvcPorts = 2;

    // Hierarchy (latencies per Table 4).
    cache::HierarchyConfig hierarchy{};

    // Region prediction (decoupled mode only).
    predict::ArptConfig arpt{
        32 * 1024, 1,
        {predict::ContextKind::Hybrid, /*gbhBits=*/8, /*cidBits=*/7}};
    /** Cycles between detection and dependent re-issue (§4.3). */
    unsigned regionMispredictPenalty = 1;
    /**
     * Cycles charged at the §4.3 TLB verification point when the
     * translation misses (page-table walk).  0 — the historical
     * free-TLB-miss behaviour — preserves the committed goldens.
     */
    unsigned tlbMissLatency = 0;
    /** Data-TLB entries (fully associative). */
    unsigned tlbEntries = 64;
    /** LVAQ offset-based fast forwarding (§4.2). */
    bool fastForwarding = true;

    // Value prediction.
    bool valuePrediction = true;
    std::uint32_t vpEntries = 16 * 1024;

    // Front end.  The paper uses a perfect I-cache and perfect
    // branch prediction (Table 4); switching this off models a
    // 16K-entry gshare with a fetch-redirect penalty instead
    // (used by bench/ablation_branch_prediction).
    bool perfectBranchPrediction = true;
    std::uint32_t bpEntries = 16 * 1024;
    unsigned branchMispredictPenalty = 5;

    /**
     * Identity of the state OooCore::warmup() leaves behind: every
     * field it reads or that sizes what it writes — the L1/LVC/L2
     * geometry, tlbEntries, `decoupled` (stack refs warm the LVC and
     * train the ARPT), the ARPT configuration, valuePrediction +
     * vpEntries and perfectBranchPrediction + bpEntries.  Configs
     * with equal keys warm bit-identical state from the same records,
     * so a sweep row warms once per key and shares the result
     * (OooCore::WarmState).  Ports, latencies, queue and window
     * sizes, issue width, contention knobs and penalties only shape
     * the timed window and stay out of it.
     */
    std::string warmKey() const;

    /**
     * Build the "(N+M)" preset of Fig 8.
     * @param dports N (data-cache ports).
     * @param lports M (LVC ports; 0 = conventional).
     * @param l1_hit_latency the L1 access time for this point — the
     *        paper uses 2 cycles up to 3 ports and charges 3 cycles
     *        for the 4-port design.
     */
    static MachineConfig nPlusM(unsigned dports, unsigned lports,
                                unsigned l1_hit_latency = 2);

    /** All Figure 8 configuration points, in the paper's order. */
    static std::vector<MachineConfig> figure8Suite();

    /**
     * Apply @p knobs onto this configuration: banks both first-level
     * structures, bounds MSHRs / the writeback buffer / the bus, sets
     * the TLB miss latency, and appends knobs.suffix() to the name so
     * contended sweep rows stay distinguishable.  A no-op when every
     * knob is zero.
     */
    void applyContention(const ContentionKnobs &knobs);

    /**
     * Force per-cycle stall attribution (the ooo.cpi_stack.* leaves
     * and the load-to-use histogram) on an ideal configuration.
     * Contended configurations always account; ideal runs default off
     * so the committed golden reports keep their historical key set.
     * Accounting is observation-only and never changes timing.
     */
    bool cpiStack = false;

    /** True when any contention or TLB-miss-latency knob is active
     *  (gates registration of the contention stat keys). */
    bool contended() const
    {
        return hierarchy.contention.anyEnabled() || tlbMissLatency > 0;
    }
};

} // namespace arl::ooo

#endif // ARL_OOO_CONFIG_HH
