/**
 * @file
 * perfbench_runner — one benchmark run of one workload.
 *
 *   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                    --digests DIR --work-dir DIR
 *   perfbench_runner --workload NAME --write-digest --digests DIR
 *                    --work-dir DIR
 *
 * --trace 0 repeats the workload's runSweep for S seconds and reports
 * the end-to-end metrics (medians over the repeats).  --trace 1
 * alternates an untraced runSweep with the traced run (traced.hh) and
 * reports the per-layer metrics, writing the spans of every
 * iteration as a Chrome trace into the work directory.
 *
 * Every grid point is checked: against the pinned digest at the
 * default seed, and against invariants at every seed.  The last line
 * of stdout is the result object {correct, attempted, failed,
 * metrics}; the line before it is a meta object (host facts,
 * calibration kernel, per-repeat values).  Exit 0 after a result
 * (even with failed points), 1 on usage or I/O errors.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "runner/digest.hh"
#include "runner/grids.hh"
#include "runner/metrics.hh"
#include "runner/spans.hh"
#include "runner/traced.hh"
#include "obs/host_meta.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"

using namespace arl;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool writeDigest = false;
    std::string digests;
    std::string workDir;
};

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "perfbench_runner: %s\n", message.c_str());
    std::exit(1);
}

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr, "perfbench_runner: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 --digests DIR --work-dir DIR "
                 "[--write-digest]\n");
    std::exit(1);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto number = [&](const char *flag, const char *text) {
        char *end = nullptr;
        double v = std::strtod(text, &end);
        if (!end || *end != '\0' || v < 0)
            usage(std::string("bad value for ") + flag);
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--write-digest") {
            o.writeDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = static_cast<std::uint64_t>(number("--seed", value));
        else if (flag == "--seconds")
            o.seconds = number("--seconds", value);
        else if (flag == "--trace")
            o.trace = number("--trace", value) != 0.0;
        else if (flag == "--digests")
            o.digests = value;
        else if (flag == "--work-dir")
            o.workDir = value;
        else
            usage("unknown flag " + flag);
    }
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown workload '" + o.workload + "'");
    if (o.digests.empty() || o.workDir.empty())
        usage("--digests and --work-dir are required");
    return o;
}

std::string
digestPath(const Options &o, const std::string &workload)
{
    return o.digests + "/" + workload + ".json";
}

Digest
loadDigest(const Options &o, const std::string &workload)
{
    std::ifstream file(digestPath(o, workload));
    if (!file)
        die("no pinned digest at " + digestPath(o, workload));
    std::ostringstream text;
    text << file.rdbuf();
    Digest digest;
    std::string error;
    if (!digestFromJson(text.str(), digest, &error))
        die(digestPath(o, workload) + ": " + error);
    return digest;
}

sweep::SweepSpec
grid(const std::string &workload, std::uint64_t seed,
     const std::string &cache_dir)
{
    sweep::SweepSpec spec;
    std::string error;
    if (!buildGrid(workload, seed, PERFBENCH_CORPUS_DIR, cache_dir, spec, &error))
        die(error);
    return spec;
}

/**
 * Check one sweep of @p workload's grid: invariants always, and the
 * pinned digest plus the guest-instruction total at the default seed.
 */
void
checkSweep(const Options &o, const std::string &workload,
           std::uint64_t seed, const sweep::SweepSpec &spec,
           const sweep::SweepResult &result, CheckOutcome &out)
{
    CheckOutcome sweep;
    checkInvariants(spec, result, sweep);
    if (seed == kDefaultSeed) {
        Digest pinned = loadDigest(o, workload);
        checkDigest(pinned, pointDigests(result), sweep);
        ++sweep.attempted;
        std::uint64_t guest = guestInsts(spec, result);
        if (guest != pinned.guestInsts)
            sweep.fail(workload + "|grid",
                       "guest_insts " + std::to_string(guest) +
                           " != pinned " +
                           std::to_string(pinned.guestInsts));
    }
    out.merge(sweep);
}

/** A fixed integer kernel; its time makes cross-host numbers ratios. */
double
calibrationSeconds()
{
    std::vector<double> times;
    volatile std::uint64_t keep = 0;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point start = Clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
        for (int i = 0; i < (1 << 24); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x * 0x2545f4914f6cdd1dull;
        }
        keep = keep + acc;
        times.push_back(secondsSince(start));
    }
    return median(times);
}

/** The model-accuracy end-to-end metrics. */
struct Accuracy
{
    double fig8ErrPct = -1.0;
    double arpt32kAccPct = -1.0;
    double samplingErrPct = -1.0;
};

/**
 * Each accuracy metric on its reference grid at the default seed,
 * untimed and digest-checked into @p out; the run's own result is
 * reused when it already is that grid.
 */
Accuracy
accuracy(const Options &o, const sweep::SweepSpec *own_spec,
         const sweep::SweepResult *own, CheckOutcome &out)
{
    Accuracy acc;
    auto reference = [&](const char *workload, bool verify) {
        if (!verify && o.workload == workload && o.seed == kDefaultSeed)
            return std::make_pair(*own_spec, *own);
        sweep::SweepSpec spec = grid(workload, kDefaultSeed, "");
        spec.samplingVerify = verify;
        sweep::SweepResult result = sweep::runSweep(spec);
        checkSweep(o, workload, kDefaultSeed, spec, result, out);
        return std::make_pair(spec, result);
    };
    {
        auto [spec, result] = reference("fig8_timing", false);
        acc.fig8ErrPct = fig8ErrPct(fig8Rows(spec, result));
    }
    {
        auto [spec, result] = reference("region_study", false);
        acc.arpt32kAccPct = schemeAccuracyPct(result, "HYBRID-32K");
    }
    {
        auto [spec, result] = reference("sampled_warm", true);
        acc.samplingErrPct = worstSamplingErrPct(result);
    }
    return acc;
}

/** Stop repeating once the next repeat would overrun the window. */
bool
keepGoing(Clock::time_point start, std::size_t done, std::size_t min_runs,
          double window)
{
    if (done < min_runs)
        return true;
    double elapsed = secondsSince(start);
    return elapsed + elapsed / done <= window;
}

/** Print a JsonWriter document as one stdout line. */
void
printLine(std::string json)
{
    for (char &c : json)
        if (c == '\n')
            c = ' ';
    std::printf("%s\n", json.c_str());
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const CheckOutcome &check, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.beginObject();
    w.field("correct", check.failed == 0);
    w.field("attempted", static_cast<std::uint64_t>(check.attempted));
    w.field("failed", static_cast<std::uint64_t>(check.failed));
    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    printLine(os.str());
}

void
printMeta(const Options &o, const std::map<std::string,
                                           std::vector<double>> &series,
          double calibration)
{
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    obs::HostMeta meta = obs::hostMeta();
    w.beginObject();
    w.key("meta").beginObject();
    w.field("workload", o.workload);
    w.field("seed", o.seed);
    w.field("trace", o.trace);
    w.field("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
    w.field("compiler", meta.compiler);
    w.field("build_type", meta.buildType);
    w.field("git_sha", meta.gitSha);
    w.field("calibration_kernel_s", calibration);
    w.key("repeats").beginObject();
    for (const auto &[name, values] : series) {
        w.key(name).beginArray();
        for (double v : values)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.key("quartiles").beginObject();
    for (const auto &[name, values] : series) {
        Quartiles q = quartiles(values);
        w.key(name).beginArray().value(q.q1).value(q.q2).value(q.q3);
        w.endArray();
    }
    w.endObject();
    w.endObject();
    w.endObject();
    printLine(os.str());
}

void
reportFailures(const CheckOutcome &check)
{
    std::size_t shown = 0;
    for (const std::string &message : check.messages) {
        if (++shown > 20) {
            std::fprintf(stderr, "perfbench: ... %zu more failures\n",
                         check.messages.size() - 20);
            break;
        }
        std::fprintf(stderr, "perfbench: FAIL %s\n", message.c_str());
    }
}

int
writeDigest(const Options &o)
{
    sweep::SweepSpec spec = grid(o.workload, kDefaultSeed, "");
    sweep::SweepResult result = sweep::runSweep(spec);
    CheckOutcome check;
    checkInvariants(spec, result, check);
    reportFailures(check);
    if (!check.failedPoints.empty())
        return 1;
    Digest digest;
    digest.workload = o.workload;
    digest.guestInsts = guestInsts(spec, result);
    digest.points = pointDigests(result);
    std::ofstream file(digestPath(o, o.workload));
    file << digestToJson(digest);
    if (!file)
        die("cannot write " + digestPath(o, o.workload));
    std::fprintf(stderr, "perfbench: pinned %zu points of %s\n",
                 digest.points.size(), o.workload.c_str());
    return 0;
}

/** Populate sampled_warm's v2 trace cache (untimed, checked). */
void
populateCache(const Options &o, const sweep::SweepSpec &spec,
              CheckOutcome &check)
{
    if (spec.traceCacheDir.empty())
        return;
    sweep::SweepResult cold = sweep::runSweep(spec);
    checkSweep(o, o.workload, o.seed, spec, cold, check);
}

int
runEndToEnd(const Options &o, const std::string &cache_dir)
{
    sweep::SweepSpec spec = grid(o.workload, o.seed, cache_dir);
    CheckOutcome check;
    populateCache(o, spec, check);

    std::map<std::string, std::vector<double>> series;
    sweep::SweepResult last;
    Clock::time_point start = Clock::now();
    for (std::size_t done = 0; keepGoing(start, done, 3, o.seconds);
         ++done) {
        obs::Profiler::instance().enable();
        Clock::time_point t0 = Clock::now();
        last = sweep::runSweep(spec);
        double wall = secondsSince(t0);
        obs::Profiler::Report profile = obs::Profiler::instance().report();
        obs::Profiler::instance().disable();
        double setup = 0.0;
        for (const obs::Profiler::Node &root : profile.phases)
            for (const obs::Profiler::Node &child : root.children)
                if (root.name == "sweep" && child.name == "prepare")
                    setup = child.seconds();
        checkSweep(o, o.workload, o.seed, spec, last, check);
        series["guest_mips"].push_back(
            static_cast<double>(guestInsts(spec, last)) / 1e6 / wall);
        series["setup_s"].push_back(setup);
        series["sweep_wall_s"].push_back(wall);
    }
    // Peak RSS before any reference grid runs, so only this
    // workload's own sweeps set the high-water mark.
    double rss_mb = static_cast<double>(obs::peakRssKb()) / 1024.0;
    Accuracy acc = accuracy(o, &spec, &last, check);
    double calibration = calibrationSeconds();

    std::vector<Metric> metrics = {
        // Best repeat: host interference only ever adds time, so the
        // fastest sweep is the least disturbed one (the meta line
        // keeps every repeat and their quartiles).
        {"guest_mips",
         *std::max_element(series["guest_mips"].begin(),
                           series["guest_mips"].end()),
         "MIPS"},
        {"setup_s", median(series["setup_s"]), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"fig8_err_pct", acc.fig8ErrPct, "%"},
        {"arpt32k_acc_pct", acc.arpt32kAccPct, "%"},
        {"sampling_err_pct", acc.samplingErrPct, "%"},
    };
    reportFailures(check);
    printMeta(o, series, calibration);
    printResult(check, metrics);
    return 0;
}

int
runTracedMode(const Options &o, const std::string &cache_dir)
{
    sweep::SweepSpec spec = grid(o.workload, o.seed, cache_dir);
    CheckOutcome check;
    populateCache(o, spec, check);

    SpanRecorder rec;
    std::map<std::string, std::vector<double>> series;
    Clock::time_point start = Clock::now();
    for (std::size_t done = 0; keepGoing(start, done, 1, o.seconds);
         ++done) {
        // Alternate which side runs first, so neither always runs on
        // a machine the other has just warmed.
        TracedIteration it;
        if (done % 2)
            it = runTraced(spec, rec, PERFBENCH_CORPUS_DIR, o.workDir);
        Clock::time_point t0 = Clock::now();
        sweep::SweepResult result = sweep::runSweep(spec);
        double untraced = secondsSince(t0);
        if (done % 2 == 0)
            it = runTraced(spec, rec, PERFBENCH_CORPUS_DIR, o.workDir);
        checkSweep(o, o.workload, o.seed, spec, result, check);

        t0 = Clock::now();
        if (!result.toReport().writeJsonFile(o.workDir + "/report.json"))
            die("cannot write " + o.workDir + "/report.json");
        double report_s = secondsSince(t0);

        Digest untraced_points;
        untraced_points.points = pointDigests(result);
        CheckOutcome traced;
        checkDigest(untraced_points, it.digests, traced, "runSweep");
        traced.attempted = it.digests.size();
        check.merge(traced);

        for (const auto &[name, value] :
             layerMetrics(rec, it, untraced, report_s))
            series[name].push_back(value);
    }
    std::string trace_path = o.workDir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (!rec.writeChromeTrace(trace_path))
        die("cannot write " + trace_path);
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                 rec.spans().size(), trace_path.c_str());

    std::vector<Metric> metrics;
    for (const auto &[name, values] : series) {
        std::string unit = "s";
        if (name.ends_with("_mips"))
            unit = "MIPS";
        else if (name.ends_with("_mrps"))
            unit = "Mrec/s";
        else if (name.ends_with("_mops"))
            unit = "Mops/s";
        else if (name.ends_with("_pct"))
            unit = "%";
        else if (name.ends_with("_per_rec"))
            unit = "B/rec";
        else if (name.ends_with("_per_cycle"))
            unit = "ns/cycle";
        else if (name == "ooo.cycles" || name.ends_with("_insts"))
            unit = "count";
        metrics.push_back({name, median(values), unit});
    }
    reportFailures(check);
    printMeta(o, series, calibrationSeconds());
    printResult(check, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    setLogLevel(LogLevel::Warn);
    std::error_code ec;
    std::filesystem::create_directories(o.workDir, ec);
    if (ec)
        die("cannot create " + o.workDir);
    if (o.writeDigest)
        return writeDigest(o);

    // sampled_warm's trace cache; per process, so runs never share it.
    std::string cache_dir =
        o.workDir + "/trace-cache-" + std::to_string(getpid());
    int rc = o.trace ? runTracedMode(o, cache_dir)
                     : runEndToEnd(o, cache_dir);
    std::filesystem::remove_all(cache_dir, ec);
    return rc;
}
