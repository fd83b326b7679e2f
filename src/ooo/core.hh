/**
 * @file
 * Trace-driven out-of-order timing model of the paper's §4 machine.
 *
 * The model reproduces SimpleScalar's RUU-style core as configured
 * in Table 4: a 16-wide machine with a 256-entry ROB whose front end
 * is perfect (perfect I-cache and branch prediction — realised here
 * by dispatching the committed instruction stream produced by the
 * embedded functional simulator), a stride value predictor, and a
 * data memory system that is either
 *
 *  - conventional: one 128-entry LSQ in front of an N-port L1
 *    D-cache, or
 *  - data-decoupled: a 96-entry LSQ + 96-entry LVAQ pair, steered at
 *    dispatch by addressing-mode rules + the ARPT, in front of an
 *    N-port L1 and an M-port 4 KB LVC.
 *
 * Modelled effects: register dataflow (lazy readiness via producer
 * state), FU pools, cache-port arbitration (loads at access, stores
 * at commit), lockup-free hierarchy latencies, store→load forwarding
 * inside each queue (1 cycle), LVAQ fast forwarding (loads need not
 * wait for older stores' address generation; offsets identify
 * dependences early), ARPT steering mispredictions verified at TLB
 * translation with selective 1-cycle re-issue (plus a configurable
 * TLB-miss penalty), and value-prediction squash/re-issue on
 * misverification.
 *
 * Cache-port arbitration order: the per-cycle port counters are
 * shared between loads and committing stores, and the stage order
 * within a cycle is completeStage → storeAddrGenStage → memoryStage
 * → issueStage → dispatchStage → commitStage.  memoryStage walks the
 * ROB oldest-first, so *loads claim ports before committing stores*
 * every cycle; a store at the ROB head only writes the cache with
 * whatever ports the cycle's loads left over, and blocks commit (in
 * program order) until it gets one.  Both loss sides are counted:
 * OooStats::portStallsLoad and OooStats::portStallsStoreCommit,
 * reported as ooo.port_stalls.{load,store_commit}.{dcache,lvc} when
 * the configuration models contention.
 *
 * Representation: the ROB is a structure-of-arrays ring — per-field
 * arrays indexed by slot, all carved from a per-core Arena — and the
 * per-cycle stages are event-driven: each visits only the slots an
 * event made eligible, held as candidate *bitmaps* (one bit per
 * slot).  Dispatch, a value-misverify reset and a producer's
 * completion (through its consumer list) set a slot's issue-candidate
 * bit; a failed operand check clears it, so a waiting instruction is
 * polled again only after one of its producers completes.  Stores
 * wait for address generation the same way, in one candidate mask
 * per queue, woken by their base-register producer.  Each load
 * searches its queue's store ring (contiguous byte intervals) once:
 * the youngest older overlapping store is memoised as (slot, seq),
 * which stays exact because the search compares trace addresses and
 * a load's older same-queue stores only ever leave from the queue
 * front.  The conservative load-ordering check is O(1): a load may
 * issue once the queue's oldest store with an unknown address is
 * younger than it.  Slots are gathered from every mask in ring order
 * starting at the head, which is exactly the oldest-first
 * [headSeq, tailSeq) scan order of a polling core, so arbitration and
 * issue priority — and therefore every report byte and pipetrace
 * event — are unchanged (tests/test_differential.cc,
 * tests/test_golden.cc).
 *
 * Writeback still walks every executing slot each cycle: bucketing
 * them by completion cycle (a completion calendar) measured no faster
 * on the Fig. 8 grid, where only a few dozen slots execute at once.
 * The clock also still advances one cycle at a time.  Skipping fully
 * idle cycles was measured and deferred: only 2.5% of the Fig. 8
 * grid's cycles have no dispatch, issue, address generation, memory
 * access, writeback or commit — too few to pay for keeping the
 * per-cycle CPI-stack attribution exact across a jump.
 *
 * Warm-state sharing: warmup() is functional, so what it leaves
 * behind — the L1/LVC/L2 tag arrays with their LRU clocks, the TLB
 * slots, the ARPT, the value predictor and the gshare table — depends
 * only on the records warmed and on MachineConfig::warmKey(), not on
 * ports, latencies or queue sizes.  snapshotWarmState() copies that
 * state out as plain data (WarmState) and adoptWarmState() assigns it
 * into another core of the same key, which then times exactly as if
 * it had warmed itself.  The sweep engine warms each workload row once
 * per key this way (tests/test_differential.cc compares it with
 * per-point warmup).
 */

#ifndef ARL_OOO_CORE_HH
#define ARL_OOO_CORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/tlb.hh"
#include "common/arena.hh"
#include "common/types.hh"
#include "obs/cpi_stack.hh"
#include "obs/histogram.hh"
#include "ooo/branch_predictor.hh"
#include "ooo/config.hh"
#include "ooo/value_predictor.hh"
#include "predict/arpt.hh"
#include "sim/simulator.hh"
#include "sim/step_source.hh"

namespace arl::obs
{
struct Hooks;
enum class PipeEvent : std::uint8_t;
}

namespace arl::ooo
{

/** End-of-run statistics. */
struct OooStats
{
    std::string configName;
    Cycle cycles = 0;
    InstCount instructions = 0;

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    /** Committed references by actual region (Data/Heap/Stack). */
    std::uint64_t regionRefs[vm::NumDataRegions] = {0, 0, 0};
    std::uint64_t lvaqSteered = 0;         ///< mem ops sent to the LVAQ
    std::uint64_t regionMispredictions = 0;
    std::uint64_t forwardedLoads = 0;
    std::uint64_t fastForwardedLoads = 0;  ///< forwarded without waiting

    std::uint64_t vpOffered = 0;
    std::uint64_t vpWrong = 0;
    std::uint64_t vpSquashes = 0;

    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;  ///< realistic front end only

    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t lvcHits = 0, lvcMisses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t tlbMissCycles = 0;  ///< penalty cycles charged

    std::uint64_t robFullStalls = 0;
    std::uint64_t queueFullStalls = 0;
    /**
     * Per-cycle stall attribution (every cause sums to `cycles`).
     * Accumulated only when the configuration is contended or
     * MachineConfig::cpiStack is set; empty otherwise.
     */
    obs::CpiStack cpiStack;
    /** Load latency from port grant to data ready (forwarded = 1);
     *  accumulated under the same gate as the CPI stack. */
    obs::Log2Histogram loadToUse;
    /** Ready loads that found every port of their pipe claimed this
     *  cycle, per pipe [DCache, Lvc]. */
    std::uint64_t portStallsLoad[2] = {0, 0};
    /** Commits blocked because the store at the ROB head found no
     *  free port, per pipe [DCache, Lvc]. */
    std::uint64_t portStallsStoreCommit[2] = {0, 0};

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** sim-outorder-style end-of-run statistics report. */
    std::string dump() const;
};

/** The out-of-order core. */
class OooCore
{
  public:
    /**
     * @param program the program under study (loads the address
     *        space; the TLB's region map comes from here).
     * @param step_source where the committed instruction stream comes
     *        from.  Null (the default) embeds a live functional
     *        simulator of @p program — the co-simulation the paper's
     *        methodology used.  Passing a trace::ReplaySource instead
     *        feeds the core from a recorded trace; timing is
     *        bit-identical either way (tests/test_differential.cc),
     *        and replay is what makes concurrent sweeps cheap.
     */
    OooCore(const MachineConfig &config,
            std::shared_ptr<const vm::Program> program,
            std::shared_ptr<sim::StepSource> step_source = nullptr);

    /**
     * Fast-forward @p insts instructions functionally before timed
     * simulation (the SimpleScalar methodology for skipping
     * initialisation).  Caches, TLB, ARPT, and the value predictor
     * are warmed from the skipped stream so the timed window starts
     * in steady state.
     *
     * @param warm_last warm microarchitectural state only from the
     *        last @p warm_last of the skipped instructions (0 = all
     *        of them).  A bounded warming window makes the warmed
     *        record set independent of how the prefix was skipped,
     *        which is what lets checkpointed fast-forward (seeking a
     *        trace to a block boundary instead of streaming from
     *        record 0) reproduce functional fast-forward timing
     *        bit-identically: both paths warm the identical final
     *        window.
     */
    void warmup(InstCount insts, InstCount warm_last = 0);

    /**
     * Everything warmup() writes, as plain data: the L1/LVC/L2 tag
     * arrays with their LRU clocks, the TLB slots, the ARPT, the
     * value predictor and the gshare table.  It holds no reference
     * into a core, so one snapshot can be adopted by any number of
     * cores whose MachineConfig::warmKey() equals `key`.
     */
    struct WarmState
    {
        std::string key;   ///< MachineConfig::warmKey() of the source
        cache::Cache::Tags l1;
        cache::Cache::Tags lvc;   ///< empty without an LVC
        cache::Cache::Tags l2;
        std::vector<cache::Tlb::Entry> tlb;
        predict::Arpt arpt;
        ValuePredictor valuePred;
        GsharePredictor branchPred;
    };

    /** Copy out the state a warmup() built. */
    WarmState snapshotWarmState() const;

    /**
     * Leave this core exactly as warmup() would have left it: assign
     * @p state into the core's own caches, TLB and predictors (so
     * stat pointers registered by attachObs() stay valid), then clear
     * the statistics and contention state like warmup()'s epilogue.
     * The key, and with it every geometry, must match (asserted).
     * Positioning the step source past the warmup is the caller's
     * business.
     */
    void adoptWarmState(const WarmState &state);

    /**
     * Simulate until the program halts or @p max_insts instructions
     * have been dispatched (0 = unlimited), then drain the pipeline.
     */
    OooStats run(InstCount max_insts = 0);

    /**
     * Phase-sampled measurement window: simulate until @p insts
     * instructions have *committed*, with dispatch free to run past
     * the window edge, and stop the clock at that commit instead of
     * draining.  A window boundary must not charge the pipeline
     * drain that a continuous run overlaps with successor
     * instructions — with run(), that drain biases every sampled
     * interval's CPI upward by ROB-depth cycles.  Near the end of
     * the trace the pipeline can empty before the target; the cycles
     * then include the genuine final drain, exactly like a full run.
     * The returned stats may overshoot @p insts by at most the
     * commit width; extrapolation scales by measured instructions.
     *
     * @param detail_warmup commits to run through the detailed
     *        pipeline *before* the measured window, then discard
     *        from the statistics.  Functional warmup leaves the ROB
     *        empty and the contention backend cold, so each window
     *        pays a fill transient a continuous run pays once; a
     *        short detailed warmup absorbs it (SMARTS-style).  The
     *        microarchitectural state survives the fence — only the
     *        counters restart.
     */
    OooStats runSample(InstCount insts, InstCount detail_warmup = 0);

    /**
     * Measure one timing point, the §4 methodology end to end:
     * warmup(@p warmup_insts, @p warm_last), then arm the attached
     * hooks' interval sampler (after warmup, so the baseline is the
     * post-warmup state and the sampled name set holds every stat
     * attachObs() registered), run(@p timed), flush the sampler's
     * final partial interval and finalize the hooks' snapshot while
     * this core is still alive.  Seeking the step source before the
     * call is the caller's business: pass only the warmup left after
     * the seek.
     */
    OooStats measure(InstCount warmup_insts, InstCount warm_last,
                     InstCount timed);

    /**
     * Attach an observability context: registers every stat of this
     * core (and its caches, TLB, and ARPT) into @p hooks->registry
     * under the ooo. / cache. / predict. hierarchies, and enables
     * pipeline-trace events when the hooks carry a tracer.  Every
     * run() then arms the hooks' interval clock and beats it when its
     * sampler or telemetry scope is due.  Call before run(); @p hooks
     * must outlive the core.  Pass nullptr to detach.
     */
    void attachObs(obs::Hooks *hooks);

    /**
     * The data-memory hierarchy (tests and instrumentation only —
     * e.g. installing a cache::Hierarchy::AccessObserver to audit
     * per-cycle bank grants).  Timing state belongs to the core; do
     * not issue accesses through this reference.
     */
    cache::Hierarchy &memHierarchy() { return hierarchy; }

    /**
     * Deterministic counts of the scheduler's own work, cumulative
     * over the core's lifetime.  They measure algorithmic cost
     * independently of the host (tests/test_ooo.cc bounds them per
     * issue and per cycle) and are deliberately not registered as
     * stats, so report key sets and goldens are unaffected.
     */
    struct WorkCounters
    {
        std::uint64_t issues = 0;           ///< issues, re-issues included
        std::uint64_t loadIssues = 0;       ///< load issues, likewise
        std::uint64_t operandPolls = 0;     ///< operandsReady() calls
        std::uint64_t forwardLookups = 0;   ///< forwarding-store searches
        std::uint64_t forwardScanSteps = 0; ///< stores those searches compared
        std::uint64_t gatherVisits = 0;     ///< slots yielded by mask gathers
        std::uint64_t aguVisits = 0;        ///< stores the AGU stage visited
    };

    const WorkCounters &workCounters() const { return work; }

  private:
    /** Which memory queue an entry sits in. */
    enum class Queue : std::uint8_t { None, Lsq, Lvaq };

    /** Why the access stage skipped a pending load last try
     *  (CPI-stack attribution state; observation only). */
    enum class MemBlock : std::uint8_t
    {
        None,
        PortDenied,     ///< every port of its pipe was claimed
        StoreNotReady   ///< matched forwarding store not ready
    };

    /** Per-slot state bits (OooCore::robFlags). */
    enum : std::uint16_t
    {
        FlagValid = 1u << 0,
        FlagIssued = 1u << 1,
        FlagCompleted = 1u << 2,
        FlagPendingMem = 1u << 3,     ///< load waiting for a port
        FlagUsedSpecValue = 1u << 4,  ///< issued on a predicted input
        FlagVpConfident = 1u << 5,
        FlagVpWrongKnown = 1u << 6,   ///< verification failed
        FlagAddrGenDone = 1u << 7,    ///< store AGU pass scheduled
        FlagStoreWritten = 1u << 8,   ///< store performed at commit
        FlagRegionChecked = 1u << 9,
        FlagMemStarted = 1u << 10     ///< granted a port; in hierarchy
    };

    /**
     * One bit per ROB slot, arena-backed.  The candidate masks below
     * are what the per-cycle stages iterate, so stage cost scales
     * with the number of eligible slots instead of the window size.
     */
    struct SlotMask
    {
        std::uint64_t *words = nullptr;
        std::size_t nwords = 0;

        void init(Arena &arena, std::size_t slots)
        {
            nwords = (slots + 63) / 64;
            words = arena.alloc<std::uint64_t>(nwords);
        }
        void set(std::size_t i)
        {
            words[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
        void clear(std::size_t i)
        {
            words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
        }
        bool test(std::size_t i) const
        {
            return (words[i >> 6] >> (i & 63)) & 1;
        }
    };

    /** Per-access contention-delay breakdown (CPI-stack replay). */
    struct MemDelays
    {
        std::uint32_t bank = 0;
        std::uint32_t wb = 0;
        std::uint32_t mshr = 0;
        std::uint32_t bus = 0;
    };

    /** Register-dataflow producers of one entry. */
    struct Deps
    {
        std::int32_t slot[3] = {-1, -1, -1};
        InstCount seq[3] = {0, 0, 0};
        std::uint8_t count = 0;
    };

    // --- pipeline stages (called once per cycle) ---
    void completeStage();
    void memoryStage();
    void issueStage();
    void dispatchStage();
    void commitStage();

    // --- helpers ---
    std::int32_t slotOf(InstCount seq) const
    {
        return static_cast<std::int32_t>(seq & robMask);
    }

    /**
     * The slots of @p mask in ring order starting at the head slot.
     * Because seq → slot is a ring mapping, visiting them
     * front-to-back visits the window oldest-first — identical
     * priority order to a full-window scan.  The span aliases one
     * shared buffer, valid until the next call.
     */
    std::span<const std::int32_t> gatherRing(const SlotMask &mask);

    /** True when every register input of @p slot is available. */
    bool operandsReady(std::int32_t slot);

    /** True when queue-order constraints allow load @p slot to issue. */
    bool loadMayIssue(std::int32_t slot) const;

    /**
     * Youngest older overlapping store in the load's queue, or -1.
     * Searched once per load and memoised (robFwdSlot / robFwdSeq);
     * later calls only check that the memoised store has not retired.
     */
    std::int32_t forwardingStore(std::int32_t load_slot);

    /** Producer @p slot completed: make its consumers issue (and
     *  store address-generation) candidates again. */
    void wakeConsumers(std::int32_t slot);

    /** Verify steering at translation; applies penalty on mispredict. */
    void translateAndVerify(std::int32_t slot);

    /** Recursively squash dependents after a value misprediction. */
    void squashConsumers(std::int32_t producer_slot);

    /** Reset one issued/completed consumer back to waiting. */
    void squashReset(std::int32_t slot, const char *why);

    /** Issue one instruction (shared bookkeeping). */
    void doIssue(std::int32_t slot);

    /** Emit one pipeline-trace event when tracing is enabled.  The
     *  guard is a single cached-bool test so disabled tracing costs
     *  nothing — in particular no std::string detail temporaries. */
    void trace(obs::PipeEvent ev, std::int32_t slot,
               const char *detail = "")
    {
        if (tracingActive) [[unlikely]]
            traceSlow(ev, slot, detail);
    }
    void traceSlow(obs::PipeEvent ev, std::int32_t slot,
                   const char *detail);

    /** Interval-clock beat (cold path; see run()'s obsNext guard). */
    void obsBeat();

    /**
     * Attribute one zero-commit cycle to a StallCause, driven by the
     * ROB head (top-down accounting); falls back to the cycle's
     * dispatch-block cause when the head's cause is weak.  Called
     * once per zero-commit cycle while accounting is enabled.
     */
    void classifyStallCycle();

    MachineConfig config;
    sim::Simulator funcSim;
    /** Front-end stream; wraps funcSim unless a source was injected. */
    std::shared_ptr<sim::StepSource> stepSrc;
    cache::Hierarchy hierarchy;
    cache::Tlb tlb;
    predict::Arpt arpt;
    ValuePredictor valuePred;
    GsharePredictor branchPred;

    // Realistic-front-end state: dispatch stalls behind an
    // unresolved mispredicted branch, then pays the redirect penalty.
    InstCount blockingBranchSeq = ~InstCount{0};
    Cycle dispatchResumeAt = 0;

    /**
     * ROB ring, structure of arrays: slots [head, tail) by sequence
     * number, one arena-backed array per field.  Hot scheduling
     * fields (flags, cycle stamps, dependences) are densely packed
     * and separate from the cold StepInfo payload, and the candidate
     * masks below replace per-entry eligibility scans.
     */
    Arena arena;
    std::size_t robLimit = 0;        ///< architectural window capacity
    std::size_t robSize = 0;         ///< ring slots (robLimit, pow2-rounded)
    std::size_t robMask = 0;         ///< robSize - 1
    sim::StepInfo *robStep = nullptr;
    const isa::OpInfo **robInfo = nullptr;   ///< robStep's opcode info
    InstCount *robSeq = nullptr;
    std::uint16_t *robFlags = nullptr;   ///< Flag* bits
    Cycle *robCompleteAt = nullptr;
    Cycle *robEarliestIssueAt = nullptr;
    Cycle *robMemReqAt = nullptr;
    Cycle *robAddrKnownAt = nullptr;
    Cycle *robTlbStallUntil = nullptr;   ///< page-table walk ends here
    Cycle *robMispredStallUntil = nullptr; ///< re-route penalty end
    Cycle *robMemStartAt = nullptr;      ///< cycle the access began
    MemDelays *robMemDelay = nullptr;    ///< per-access stall breakdown
    Word *robVpValue = nullptr;
    Deps *robDeps = nullptr;
    std::int32_t *robBaseProdSlot = nullptr;
    InstCount *robBaseProdSeq = nullptr;
    /** Memoised forwarding search of a load: the matched store's
     *  slot and seq, -1 for none, or kFwdUnsearched. */
    std::int32_t *robFwdSlot = nullptr;
    InstCount *robFwdSeq = nullptr;
    static constexpr std::int32_t kFwdUnsearched = -2;
    std::uint8_t *robQueue = nullptr;    ///< Queue
    std::uint8_t *robPipe = nullptr;     ///< cache::MemPipe
    std::uint8_t *robMemBlock = nullptr; ///< MemBlock
    /** Consumer slot lists (capacity reused across occupants). */
    std::vector<std::vector<std::int32_t>> robConsumers;

    /** Unissued slots that may be ready: set at dispatch, on a
     *  squash reset and when a producer completes; cleared by issue
     *  and by a failed operand check. */
    SlotMask issueCandidates;
    /** valid & issued & !completed & !pendingMem: the writeback
     *  candidates. */
    SlotMask execMask;
    /** valid & pendingMem: loads waiting for a port or forwarding. */
    SlotMask pendingMemMask;

    /** gatherRing()'s output buffer (robSize entries). */
    std::int32_t *gatherBuf = nullptr;

    InstCount headSeq = 0;   ///< oldest in-flight instruction
    InstCount tailSeq = 0;   ///< next sequence number to dispatch

    // Register producer map: flat reg -> (slot, seq).
    std::int32_t regProducer[isa::NumFlatRegs];
    InstCount regProducerSeq[isa::NumFlatRegs];

    /**
     * Per-queue in-flight store tracking: a fixed-capacity ring
     * (arena-backed parallel seq/slot/byte-interval arrays) holding
     * one queue's stores in program order, so the forwarding search
     * scans contiguous addresses; `knownPrefix` counts the leading
     * stores whose addresses have been generated.  Together they
     * answer "have all stores older than seq generated their
     * addresses?" in O(1) and bound the forwarding search to the
     * queue's stores instead of the whole window.  `aguCandidates`
     * holds the queue's stores still waiting for address generation
     * that may be able to run it: set at dispatch, on a squash reset
     * and when the base producer completes.
     */
    struct StoreQueue
    {
        InstCount *seq = nullptr;
        std::int32_t *slot = nullptr;
        Addr *start = nullptr;   ///< first byte written
        Addr *end = nullptr;     ///< one past the last byte written
        std::size_t cap = 0;     ///< power of two, >= robSize
        std::size_t head = 0;
        std::size_t count = 0;
        std::size_t knownPrefix = 0;
        SlotMask aguCandidates;

        void init(Arena &arena, std::size_t capacity)
        {
            cap = capacity;
            seq = arena.alloc<InstCount>(cap);
            slot = arena.alloc<std::int32_t>(cap);
            start = arena.alloc<Addr>(cap);
            end = arena.alloc<Addr>(cap);
            aguCandidates.init(arena, capacity);
        }
        InstCount seqAt(std::size_t i) const
        {
            return seq[(head + i) & (cap - 1)];
        }
        std::int32_t slotAt(std::size_t i) const
        {
            return slot[(head + i) & (cap - 1)];
        }
        Addr startAt(std::size_t i) const
        {
            return start[(head + i) & (cap - 1)];
        }
        Addr endAt(std::size_t i) const
        {
            return end[(head + i) & (cap - 1)];
        }
        void push(InstCount s, std::int32_t sl, Addr lo, Addr hi)
        {
            std::size_t at = (head + count) & (cap - 1);
            seq[at] = s;
            slot[at] = sl;
            start[at] = lo;
            end[at] = hi;
            ++count;
        }
        void popFront()
        {
            head = (head + 1) & (cap - 1);
            --count;
        }

        /** Index of the first store with seq >= @p seq. */
        std::size_t olderCount(InstCount seq) const;
    };

    StoreQueue &storeQueueOf(Queue queue)
    {
        return queue == Queue::Lvaq ? lvaqStores : lsqStores;
    }

    /** Advance each queue's address-known prefix. */
    void advanceStorePrefixes();

    /** Early store address generation (base-operand-only AGU pass). */
    void storeAddrGenStage();

    /** Roll back the known prefix when a store is squashed. */
    void onStoreSquashed(std::int32_t slot);

    StoreQueue lsqStores;
    StoreQueue lvaqStores;

    // Queue occupancy.
    unsigned lsqOccupancy = 0;
    unsigned lvaqOccupancy = 0;

    // Per-cycle resources.
    unsigned portsUsed[2] = {0, 0};   ///< [DCache, Lvc]
    unsigned fuUsed[5] = {0, 0, 0, 0, 0};
    unsigned issuedThisCycle = 0;
    /** Structure dispatch hit this cycle (RobFull / LsqFull /
     *  LvaqFull); NumCauses = dispatch was not blocked. */
    obs::StallCause dispatchBlocked = obs::StallCause::NumCauses;

    // Trace buffering.
    std::optional<sim::StepInfo> pendingStep;
    bool traceExhausted = false;
    InstCount dispatchBudget = 0;    ///< 0 = unlimited
    InstCount commitTarget = 0;      ///< runSample() stop; 0 = off
    /** Clock value at the last statsFence(); reported cycles are
     *  relative to it so a detailed warmup phase is untimed. */
    Cycle cycleBase = 0;

    /** Restart every statistic (core counters, CPI stack, cache and
     *  TLB hit counters) without touching microarchitectural state.
     *  The boundary between a detailed warmup and its measured
     *  window. */
    void statsFence();

    /** Zero the cache and TLB hit/miss/writeback counters. */
    void clearMemoryCounters();

    Cycle now = 0;
    OooStats stats;
    obs::Hooks *obsHooks = nullptr;
    /** Per-cycle stall attribution on? (contended or forced). */
    bool cpiEnabled = false;
    /** A pipeline/Chrome tracer is attached (cached; see trace()). */
    bool tracingActive = false;
    /** The hooks' interval-clock threshold, cached at run() entry
     *  and after every beat: the loop's only interval compare, never
     *  reached without hooks or without a due sink. */
    InstCount obsNext = UINT64_MAX;
    WorkCounters work;
};

} // namespace arl::ooo

#endif // ARL_OOO_CORE_HH
