/**
 * @file
 * The benchmark's four named workloads, each a sweep::SweepSpec grid.
 *
 * Every workload runs through sweep::runSweep with one worker, the
 * path `arl_sim sweep` uses.  The seed only moves each timing row's
 * fast-forward: seed 0 (the default) measures the registry warmups
 * exactly and is the seed the pinned digests describe; any other
 * seed adds a per-row offset so a held-out seed measures different
 * windows of the same programs.  region_study has no fast-forward,
 * so every seed runs the same grid there.
 */

#ifndef PERFBENCH_GRIDS_HH
#define PERFBENCH_GRIDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ooo/config.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

/** The seed whose per-point digests are pinned. */
constexpr std::uint64_t kDefaultSeed = 0;

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Extra fast-forward for row @p row under @p seed: 0 for the default
 * seed, otherwise a deterministic multiple of 1000 below
 * kMaxSeedOffset.
 */
arl::InstCount seedOffset(std::uint64_t seed, const std::string &row);

/** Upper bound (exclusive) of seedOffset(). */
constexpr arl::InstCount kMaxSeedOffset = 8000;

/**
 * The grid of workload @p name under @p seed.  Corpus rows
 * (region_study) are read from @p corpus_dir.  @p trace_cache_dir is
 * the v2 cache sampled_warm decodes from (unused by the others).
 * @return false with @p error set on an unknown name or unreadable
 *         corpus.
 */
bool buildGrid(const std::string &name, std::uint64_t seed,
               const std::string &corpus_dir,
               const std::string &trace_cache_dir,
               arl::sweep::SweepSpec &out, std::string *error);

/** The 1-bit hybrid ARPT scheme "HYBRID-<n>K" of @p entries, with the
 *  context split bench/fig5_arpt_size uses for finite tables. */
arl::sweep::SchemeSpec finiteHybrid(std::uint32_t entries);

/** contended_mem's backend: banks 4, MSHRs 8, writeback buffer 4,
 *  bus 2 cycles, TLB miss 30 cycles. */
arl::ooo::ContentionKnobs contendedKnobs();

/**
 * Guest instructions one runSweep of @p spec simulates, counted like
 * arl_bench: trace records, plus warmup and timed instructions per
 * exact timing point, plus detailed representative instructions per
 * sampled point, plus instructions per region-study row.
 */
std::uint64_t guestInsts(const arl::sweep::SweepSpec &spec,
                         const arl::sweep::SweepResult &result);

} // namespace perfbench

#endif // PERFBENCH_GRIDS_HH
