/**
 * @file
 * Output checks: a per-point digest of simulated statistics, pinned
 * for the default seed, and invariants checked on every seed.
 *
 * Every grid point is one operation.  A point fails when a pinned
 * stat differs or an invariant breaks; each failure message names the
 * point ("workload|config") and the stat.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sweep/sweep.hh"

namespace perfbench
{

/** The simulated stats of one grid point, in a fixed order. */
struct PointDigest
{
    /** "workload|config" ("workload|regionstudy" for region rows). */
    std::string point;
    std::vector<std::pair<std::string, double>> stats;
};

/** A workload's pinned expectation at the default seed. */
struct Digest
{
    std::string workload;
    /** Guest instructions one runSweep of the grid simulates. */
    std::uint64_t guestInsts = 0;
    std::vector<PointDigest> points;
};

/** Digests of every point of @p result, in grid order. */
std::vector<PointDigest> pointDigests(const arl::sweep::SweepResult &result);

/** Serialize / parse the pinned digest file. */
std::string digestToJson(const Digest &digest);
bool digestFromJson(const std::string &text, Digest &out,
                    std::string *error);

/** Outcome of checking one or more sweeps' points. */
struct CheckOutcome
{
    std::size_t attempted = 0;
    /** Points ("workload|config") of this sweep with a failure. */
    std::set<std::string> failedPoints;
    /** Failed points of the sweeps merged in. */
    std::size_t failed = 0;
    /** One line per failure, naming the point and the stat. */
    std::vector<std::string> messages;

    void fail(const std::string &point, const std::string &message);
    /** Add one sweep's outcome to this total. */
    void merge(const CheckOutcome &sweep);
};

/**
 * Compare @p got against @p want exactly, point by point; a point
 * missing on either side fails.  @p source names @p want in messages.
 */
void checkDigest(const Digest &want, const std::vector<PointDigest> &got,
                 CheckOutcome &out, const std::string &source = "pinned");

/**
 * The invariants every seed must satisfy: timed instructions
 * completed, IPC <= issue width, CPI-stack sum == cycles on contended
 * configs, sampled simulated_insts < total_insts, and region rows
 * observing every instruction they were asked for.
 */
void checkInvariants(const arl::sweep::SweepSpec &spec,
                     const arl::sweep::SweepResult &result,
                     CheckOutcome &out);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
