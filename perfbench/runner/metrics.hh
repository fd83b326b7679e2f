/**
 * @file
 * Summary statistics and the model-accuracy figures the benchmark
 * reports beside its timings.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <map>
#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace perfbench
{

/** Median of @p values (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> values);

/**
 * Quartiles of @p values by Python's statistics.quantiles(values,
 * n=4) (the default "exclusive" method), so the spread the benchmark
 * prints is the one its acceptance check computes.  Needs at least
 * two values; returns {v, v, v} for a single one and zeros if empty.
 */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/** One row of a Fig. 8 grid: speedup over (2+0) per config name. */
struct SpeedupRow
{
    bool floatingPoint = false;
    std::map<std::string, double> speedup;
};

/** The numeric Fig. 8 cells of the paper (EXPERIMENTS.md). */
struct PaperCell
{
    const char *config;
    bool floatingPoint;
    double speedup;
};
const std::vector<PaperCell> &figure8PaperCells();

/**
 * Mean absolute relative error, in percent, of the grid's int and FP
 * average speedups against figure8PaperCells().  Returns a negative
 * value when a row set lacks a config or a group.
 */
double fig8ErrPct(const std::vector<SpeedupRow> &rows);

/** Speedup rows of a timing grid whose first config is (2+0). */
std::vector<SpeedupRow>
fig8Rows(const arl::sweep::SweepSpec &spec,
         const arl::sweep::SweepResult &result);

/**
 * Mean accuracy, in percent, of the region-study scheme @p scheme
 * over every row of @p result; negative when the scheme is absent.
 */
double schemeAccuracyPct(const arl::sweep::SweepResult &result,
                         const std::string &scheme);

/** Worst measured CPI error, in percent, over verified sampled
 *  points; negative when no point was verified. */
double worstSamplingErrPct(const arl::sweep::SweepResult &result);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
