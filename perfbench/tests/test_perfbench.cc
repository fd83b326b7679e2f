/**
 * @file
 * Unit tests of the benchmark's own code: summary statistics, the
 * Fig. 8 reference error, the digest check and the seed offsets.
 */

#include <gtest/gtest.h>

#include "runner/digest.hh"
#include "runner/grids.hh"
#include "runner/metrics.hh"

using namespace perfbench;

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonExclusive)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    q = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.q2, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    q = quartiles({16, 1, 8, 2, 4});
    EXPECT_DOUBLE_EQ(q.q1, 1.5);
    EXPECT_DOUBLE_EQ(q.q2, 4.0);
    EXPECT_DOUBLE_EQ(q.q3, 12.0);
}

namespace
{

/** Rows whose group averages are the paper cells times @p factor. */
std::vector<SpeedupRow>
paperTable(double factor)
{
    std::vector<SpeedupRow> rows(2);
    rows[1].floatingPoint = true;
    for (const PaperCell &cell : figure8PaperCells())
        rows[cell.floatingPoint].speedup[cell.config] =
            cell.speedup * factor;
    return rows;
}

} // namespace

TEST(Fig8, ExactTableHasZeroError)
{
    EXPECT_NEAR(fig8ErrPct(paperTable(1.0)), 0.0, 1e-12);
}

TEST(Fig8, UniformTenPercentOff)
{
    EXPECT_NEAR(fig8ErrPct(paperTable(1.1)), 10.0, 1e-9);
    EXPECT_NEAR(fig8ErrPct(paperTable(0.8)), 20.0, 1e-9);
}

TEST(Fig8, AveragesEachGroupBeforeComparing)
{
    // Two int rows at 1.0x and 1.2x of the paper average exactly to
    // 1.1x; the FP group is exact.  Four int cells off by 10 %.
    std::vector<SpeedupRow> rows = paperTable(1.0);
    SpeedupRow lo = rows[0], hi = rows[0];
    for (auto &[config, s] : hi.speedup)
        s *= 1.2;
    rows[0] = lo;
    rows.push_back(hi);
    EXPECT_NEAR(fig8ErrPct(rows), 100.0 * (4 * 0.1) / 8, 1e-9);
}

TEST(Fig8, MissingConfigOrGroupIsNegative)
{
    std::vector<SpeedupRow> rows = paperTable(1.0);
    rows[0].speedup.erase("(16+0)");
    EXPECT_LT(fig8ErrPct(rows), 0.0);
    rows = paperTable(1.0);
    rows.pop_back();  // no FP row
    EXPECT_LT(fig8ErrPct(rows), 0.0);
}

namespace
{

Digest
sampleDigest()
{
    Digest d;
    d.workload = "fig8_timing";
    d.guestInsts = 123456789;
    d.points = {
        {"go_like|(2+0)", {{"ooo.cycles", 4321}, {"ooo.instructions", 30000}}},
        {"go_like|(3+3)", {{"ooo.cycles", 3210}, {"ooo.instructions", 30000}}},
    };
    return d;
}

} // namespace

TEST(Digest, JsonRoundTrip)
{
    Digest d = sampleDigest();
    Digest back;
    std::string error;
    ASSERT_TRUE(digestFromJson(digestToJson(d), back, &error)) << error;
    EXPECT_EQ(back.workload, d.workload);
    EXPECT_EQ(back.guestInsts, d.guestInsts);
    ASSERT_EQ(back.points.size(), 2u);
    EXPECT_EQ(back.points[1].point, "go_like|(3+3)");
    EXPECT_EQ(back.points[1].stats, d.points[1].stats);
}

TEST(Digest, IdenticalPointsPass)
{
    CheckOutcome out;
    checkDigest(sampleDigest(), sampleDigest().points, out);
    EXPECT_TRUE(out.failedPoints.empty());
    EXPECT_TRUE(out.messages.empty());
}

TEST(Digest, PerturbedPointIsNamedWithItsStat)
{
    std::vector<PointDigest> got = sampleDigest().points;
    got[1].stats[0].second += 1;  // one extra cycle on (3+3)
    CheckOutcome out;
    checkDigest(sampleDigest(), got, out);
    ASSERT_EQ(out.failedPoints.size(), 1u);
    EXPECT_EQ(*out.failedPoints.begin(), "go_like|(3+3)");
    ASSERT_EQ(out.messages.size(), 1u);
    EXPECT_NE(out.messages[0].find("go_like|(3+3)"), std::string::npos);
    EXPECT_NE(out.messages[0].find("ooo.cycles 3211 != pinned 3210"),
              std::string::npos);
}

TEST(Digest, MissingAndExtraPointsFail)
{
    std::vector<PointDigest> got = sampleDigest().points;
    got.pop_back();
    CheckOutcome out;
    checkDigest(sampleDigest(), got, out);
    EXPECT_EQ(out.failedPoints.count("go_like|(3+3)"), 1u);

    got = sampleDigest().points;
    got.push_back({"li_like|(2+0)", {{"ooo.cycles", 1}}});
    CheckOutcome extra;
    checkDigest(sampleDigest(), got, extra);
    EXPECT_EQ(extra.failedPoints.count("li_like|(2+0)"), 1u);
}

TEST(Seed, DefaultSeedHasNoOffsetOthersAreBoundedAndStable)
{
    EXPECT_EQ(seedOffset(kDefaultSeed, "go_like"), 0u);
    bool moved = false;
    for (std::uint64_t seed = 1; seed < 50; ++seed) {
        arl::InstCount off = seedOffset(seed, "go_like");
        EXPECT_LT(off, kMaxSeedOffset);
        EXPECT_EQ(off % 1000, 0u);
        EXPECT_EQ(off, seedOffset(seed, "go_like"));
        moved |= off != 0;
    }
    EXPECT_TRUE(moved);
}
