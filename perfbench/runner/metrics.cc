#include "runner/metrics.hh"

#include <algorithm>
#include <cmath>

#include "workloads/workloads.hh"

using namespace arl;

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

Quartiles
quartiles(std::vector<double> values)
{
    if (values.empty())
        return {};
    if (values.size() == 1)
        return {values[0], values[0], values[0]};
    std::sort(values.begin(), values.end());
    // statistics.quantiles(method="exclusive"), n = 4, exact integer
    // rescaling of the cut points as CPython does it.
    const long n = 4;
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    double cut[3];
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        cut[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                      values[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    return {cut[0], cut[1], cut[2]};
}

const std::vector<PaperCell> &
figure8PaperCells()
{
    static const std::vector<PaperCell> cells = {
        {"(3+0)", false, 1.21},      {"(3+0)", true, 1.14},
        {"(3+0)/3cyc", false, 1.18}, {"(3+0)/3cyc", true, 1.14},
        {"(4+0)/3cyc", false, 1.25}, {"(4+0)/3cyc", true, 1.20},
        {"(16+0)", false, 1.33},     {"(16+0)", true, 1.25},
    };
    return cells;
}

double
fig8ErrPct(const std::vector<SpeedupRow> &rows)
{
    double err_sum = 0.0;
    for (const PaperCell &cell : figure8PaperCells()) {
        double sum = 0.0;
        unsigned count = 0;
        for (const SpeedupRow &row : rows) {
            if (row.floatingPoint != cell.floatingPoint)
                continue;
            auto it = row.speedup.find(cell.config);
            if (it == row.speedup.end())
                return -1.0;
            sum += it->second;
            ++count;
        }
        if (count == 0)
            return -1.0;
        double measured = sum / count;
        err_sum += std::fabs(measured - cell.speedup) / cell.speedup;
    }
    return 100.0 * err_sum / figure8PaperCells().size();
}

std::vector<SpeedupRow>
fig8Rows(const sweep::SweepSpec &spec, const sweep::SweepResult &result)
{
    std::vector<SpeedupRow> rows;
    if (result.numConfigs == 0)
        return rows;
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        SpeedupRow row;
        row.floatingPoint =
            workloads::workloadByName(spec.workloads[wi].name)
                .floatingPoint;
        double base = static_cast<double>(result.at(wi, 0).stats.cycles);
        for (std::size_t ci = 0; ci < result.numConfigs; ++ci) {
            const sweep::TimingPoint &point = result.at(wi, ci);
            row.speedup[point.config] =
                base / static_cast<double>(point.stats.cycles);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

double
schemeAccuracyPct(const sweep::SweepResult &result,
                  const std::string &scheme)
{
    double sum = 0.0;
    std::size_t count = 0;
    for (const sweep::RegionPoint &point : result.region)
        for (const auto &[name, report] : point.schemes)
            if (name == scheme) {
                sum += report.accuracyPct();
                ++count;
            }
    return count ? sum / count : -1.0;
}

double
worstSamplingErrPct(const sweep::SweepResult &result)
{
    double worst = -1.0;
    for (const sweep::TimingPoint &point : result.timing)
        worst = std::max(worst, point.sampling.measuredErrorPct);
    return worst;
}

} // namespace perfbench
