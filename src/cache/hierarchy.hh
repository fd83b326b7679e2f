/**
 * @file
 * Two-level data-memory hierarchy with an optional Local Variable
 * Cache (Table 4 of the paper).
 *
 *   L1 D-cache: 64 KB, 2-way, 2-cycle hit (configurable)
 *   LVC:         4 KB, direct-mapped, 1-cycle hit (decoupled mode)
 *   L2:        512 KB, 4-way, 12-cycle
 *   Memory:    50-cycle
 *
 * Both L1s and the LVC miss into the shared L2.  Caches are
 * lockup-free: a miss occupies its port only on the initiating
 * cycle; the returned latency tells the core when the data arrives.
 *
 * Two access paths exist:
 *
 *  - access(): the ideal path — pure latency adder, fully
 *    interleaved, unbounded misses, free writebacks.  Used for
 *    functional warmup and wherever time is not being modelled.
 *  - timedAccess(): the contention-aware path.  When any
 *    ContentionConfig knob is non-zero it additionally models
 *    address-interleaved banks (same-cycle same-bank accesses
 *    serialize), a bounded MSHR file per first-level structure
 *    (secondary misses merge, primary misses stall when full), a
 *    finite writeback buffer for dirty victims, and a shared
 *    L2/memory bus with bounded bandwidth for refills and
 *    writeback drains.  With every knob at its zero default,
 *    timedAccess() is cycle-for-cycle identical to access().
 */

#ifndef ARL_CACHE_HIERARCHY_HH
#define ARL_CACHE_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "cache/bank.hh"
#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/types.hh"

namespace arl::obs
{
class StatsRegistry;
}

namespace arl::cache
{

/** Which first-level structure an access is routed to. */
enum class MemPipe : std::uint8_t
{
    DCache = 0,  ///< the regular data-cache pipeline (LSQ side)
    Lvc = 1      ///< the local-variable-cache pipeline (LVAQ side)
};

/**
 * Contention knobs.  Every field's zero default selects the ideal
 * behaviour the repository has always modelled, which keeps the
 * committed golden reports byte-identical; see DESIGN.md.
 */
struct ContentionConfig
{
    unsigned l1Banks = 0;       ///< L1 D-cache banks (0 = interleaved)
    unsigned lvcBanks = 0;      ///< LVC banks (0 = interleaved)
    unsigned mshrs = 0;         ///< MSHRs per structure (0 = unlimited)
    unsigned wbBufEntries = 0;  ///< writeback buffer depth (0 = infinite)
    /** Shared L2/memory bus cycles per line transfer (0 = infinite
     *  bandwidth).  Charged on refills and on writeback drains. */
    unsigned busCyclesPerTransfer = 0;

    bool anyEnabled() const
    {
        return l1Banks || lvcBanks || mshrs || wbBufEntries ||
               busCyclesPerTransfer;
    }
};

/** Hierarchy latencies and geometry. */
struct HierarchyConfig
{
    CacheGeometry l1{"L1D", 64 * 1024, 32, 2};
    std::uint32_t l1HitLatency = 2;

    bool hasLvc = false;
    CacheGeometry lvc{"LVC", 4 * 1024, 32, 1};
    std::uint32_t lvcHitLatency = 1;

    CacheGeometry l2{"L2", 512 * 1024, 64, 4};
    std::uint32_t l2HitLatency = 12;

    std::uint32_t memoryLatency = 50;

    ContentionConfig contention{};
};

/**
 * Timing outcome of one access.
 *
 * The delay fields break the contention share of `latency` down by
 * cause, in the order the stalls occur on the timed path; each is 0
 * on the ideal path.  The remainder of `latency` is pure hierarchy
 * latency (hit / L2 / memory cycles).
 */
struct HierarchyResult
{
    std::uint32_t latency = 0;  ///< cycles until data available
    bool l1Hit = false;         ///< hit in the first-level structure
    std::uint32_t bankDelay = 0;  ///< cycles lost to bank arbitration
    std::uint32_t wbDelay = 0;    ///< cycles on a full writeback buffer
    std::uint32_t mshrDelay = 0;  ///< cycles waiting for a free MSHR
    std::uint32_t busDelay = 0;   ///< cycles the refill queued for the bus
};

/** The full data-side hierarchy. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Perform one access through @p pipe on the ideal path.
     * @return total latency (first-level hit latency on a hit; plus
     *         L2 / memory latency on misses).
     */
    HierarchyResult access(MemPipe pipe, Addr addr, bool is_write);

    /**
     * Perform one access through @p pipe at cycle @p now on the
     * contention-aware path.  Identical to access() while every
     * ContentionConfig knob is zero.  Within a cycle, callers must
     * present accesses in the deterministic stage/program order the
     * core already uses — bank and bus grants are first-come.
     *
     * The all-knobs-zero case short-circuits straight to access():
     * one cached-bool test instead of bank scheduling, MSHR lookup,
     * and writeback bookkeeping that all provably no-op (the
     * fast-path differential test pins the equivalence).  Installing
     * an AccessObserver forces the full path so instrumentation sees
     * every access.
     */
    HierarchyResult timedAccess(MemPipe pipe, Addr addr, bool is_write,
                                Cycle now)
    {
        if (fastUncontended) [[likely]]
            return access(pipe, addr, is_write);
        return timedAccessSlow(pipe, addr, is_write, now);
    }

    /**
     * Forget all transient contention state (bank busy time, MSHR
     * occupancy, writeback buffer, bus schedule) *and* the contention
     * statistics.  Called between functional warmup and the timed
     * window so warmup never pollutes timed contention.
     */
    void resetContention();

    /** First-level cache behind @p pipe. */
    Cache &firstLevel(MemPipe pipe);

    Cache &l1() { return l1Cache; }
    Cache &lvcCache() { return *lvc; }
    Cache &l2() { return l2Cache; }
    const Cache &l1() const { return l1Cache; }
    const Cache &lvcCache() const { return *lvc; }
    const Cache &l2() const { return l2Cache; }
    bool hasLvc() const { return lvc != nullptr; }

    const HierarchyConfig &configuration() const { return config; }

    // --- contention introspection (tests, reports) ---
    const BankSet &l1Banks() const { return l1BankSet; }
    const BankSet &lvcBanks() const { return lvcBankSet; }
    const MshrFile &l1Mshrs() const { return l1MshrFile; }
    std::uint64_t busBusy() const { return busBusyCycles; }
    std::uint64_t wbFullStallCount() const { return wbFullStalls; }
    std::uint64_t wbStallCycleCount() const { return wbStallCycles; }
    std::uint64_t wbEnqueuedCount() const { return wbEnqueued; }

    /**
     * Test/instrumentation hook: called on every timedAccess with
     * (pipe, addr, request cycle, granted start cycle, bank index).
     * Used by the port+bank invariant test; empty by default.
     */
    using AccessObserver = std::function<void(
        MemPipe, Addr, Cycle request_at, Cycle start_at, unsigned bank)>;
    void setAccessObserver(AccessObserver observer)
    {
        accessObserver = std::move(observer);
        fastUncontended =
            !config.contention.anyEnabled() && !accessObserver;
    }

    /**
     * Register every level's stats under "<prefix>.l1", "<prefix>.lvc"
     * (when present) and "<prefix>.l2".  Contention counters (bank
     * conflicts, MSHR merges/stalls, writeback-buffer stalls, bus busy
     * cycles) are registered only when contention is configured, so
     * ideal-configuration reports keep their exact historical key set.
     */
    void registerStats(obs::StatsRegistry &registry,
                       const std::string &prefix) const;

  private:
    /** The contention-modelling body of timedAccess(). */
    HierarchyResult timedAccessSlow(MemPipe pipe, Addr addr,
                                    bool is_write, Cycle now);

    /** Bus transfer completion no earlier than @p ready; books the
     *  bus busy time.  Only called when the bus knob is non-zero. */
    Cycle scheduleBusTransfer(Cycle ready);

    /** Admit a dirty victim to the writeback buffer at @p at;
     *  returns the (possibly stalled) cycle the miss may proceed. */
    Cycle enqueueWriteback(Cycle at);

    HierarchyConfig config;
    Cache l1Cache;
    std::unique_ptr<Cache> lvc;
    Cache l2Cache;

    // Contention state (inert while ContentionConfig is all-zero).
    BankSet l1BankSet;
    BankSet lvcBankSet;
    MshrFile l1MshrFile;
    MshrFile lvcMshrFile;
    std::deque<Cycle> wbDrainAt;  ///< drain-completion cycles, sorted
    Cycle busFreeAt = 0;
    AccessObserver accessObserver;
    /** No contention knobs and no observer: timedAccess ≡ access. */
    bool fastUncontended = false;

    // Contention statistics.
    std::uint64_t busBusyCycles = 0;
    std::uint64_t wbEnqueued = 0;
    std::uint64_t wbFullStalls = 0;
    std::uint64_t wbStallCycles = 0;
};

} // namespace arl::cache

#endif // ARL_CACHE_HIERARCHY_HH
