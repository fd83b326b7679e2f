#include "runner/digest.hh"

#include <algorithm>
#include <sstream>

#include "obs/json.hh"

using namespace arl;

namespace perfbench
{

namespace
{

std::string
pointName(const std::string &workload, const std::string &config)
{
    return workload + "|" + config;
}

std::string
number(double value)
{
    return obs::jsonNumber(value);
}

} // namespace

void
CheckOutcome::fail(const std::string &point, const std::string &message)
{
    failedPoints.insert(point);
    messages.push_back(point + ": " + message);
}

void
CheckOutcome::merge(const CheckOutcome &sweep)
{
    attempted += sweep.attempted;
    failed += sweep.failedPoints.size() + sweep.failed;
    messages.insert(messages.end(), sweep.messages.begin(),
                    sweep.messages.end());
}

std::vector<PointDigest>
pointDigests(const sweep::SweepResult &result)
{
    std::vector<PointDigest> out;
    for (const sweep::TimingPoint &point : result.timing) {
        PointDigest d;
        d.point = pointName(point.workload, point.config);
        d.stats.emplace_back("ooo.cycles",
                             static_cast<double>(point.stats.cycles));
        d.stats.emplace_back(
            "ooo.instructions",
            static_cast<double>(point.stats.instructions));
        if (point.sampling.enabled)
            d.stats.emplace_back(
                "sampling.simulated_insts",
                static_cast<double>(point.sampling.simulatedInsts));
        out.push_back(std::move(d));
    }
    for (const sweep::RegionPoint &point : result.region) {
        PointDigest d;
        d.point = pointName(point.workload, "regionstudy");
        d.stats.emplace_back("profile.instructions",
                             static_cast<double>(point.instructions));
        if (!point.schemes.empty())
            d.stats.emplace_back(
                "profile.mem_refs",
                static_cast<double>(point.schemes[0].second.total));
        for (const auto &[name, report] : point.schemes)
            d.stats.emplace_back("scheme." + name + ".correct",
                                 static_cast<double>(report.correct));
        out.push_back(std::move(d));
    }
    return out;
}

std::string
digestToJson(const Digest &digest)
{
    std::ostringstream os;
    obs::JsonWriter w(os, 1);
    w.beginObject();
    w.field("workload", digest.workload);
    w.field("guest_insts", digest.guestInsts);
    w.key("points").beginArray();
    for (const PointDigest &p : digest.points) {
        w.beginObject();
        w.field("point", p.point);
        for (const auto &[name, value] : p.stats)
            w.field(name, value);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

bool
digestFromJson(const std::string &text, Digest &out, std::string *error)
{
    obs::JsonValue doc;
    if (!obs::jsonParse(text, doc, error))
        return false;
    auto bad = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    const obs::JsonValue *workload = doc.find("workload");
    const obs::JsonValue *guest = doc.find("guest_insts");
    const obs::JsonValue *points = doc.find("points");
    if (!workload || !workload->isString() || !guest ||
        !guest->isNumber() || !points || !points->isArray())
        return bad("digest needs workload, guest_insts and points");
    Digest digest;
    digest.workload = workload->string;
    digest.guestInsts = static_cast<std::uint64_t>(guest->number);
    for (const obs::JsonValue &p : points->array) {
        const obs::JsonValue *name = p.isObject() ? p.find("point")
                                                  : nullptr;
        if (!name || !name->isString())
            return bad("digest point without a \"point\" name");
        PointDigest d;
        d.point = name->string;
        for (const auto &[key, value] : p.object) {
            if (key == "point")
                continue;
            if (!value.isNumber())
                return bad(d.point + ": stat " + key +
                           " is not a number");
            d.stats.emplace_back(key, value.number);
        }
        digest.points.push_back(std::move(d));
    }
    out = std::move(digest);
    return true;
}

void
checkDigest(const Digest &pinned, const std::vector<PointDigest> &got,
            CheckOutcome &out, const std::string &source)
{
    std::size_t n = std::max(pinned.points.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= pinned.points.size()) {
            out.fail(got[i].point, "not in the " + source + " digest");
            continue;
        }
        const PointDigest &want = pinned.points[i];
        if (i >= got.size()) {
            out.fail(want.point, source + " point not produced");
            continue;
        }
        const PointDigest &have = got[i];
        if (have.point != want.point) {
            out.fail(have.point,
                     "expected " + source + " point " + want.point);
            continue;
        }
        for (const auto &[stat, value] : want.stats) {
            const double *seen = nullptr;
            for (const auto &entry : have.stats)
                if (entry.first == stat)
                    seen = &entry.second;
            if (!seen)
                out.fail(have.point, stat + " missing");
            else if (*seen != value)
                out.fail(have.point, stat + " " + number(*seen) + " != " +
                                         source + " " + number(value));
        }
    }
}

void
checkInvariants(const sweep::SweepSpec &spec,
                const sweep::SweepResult &result, CheckOutcome &out)
{
    const std::size_t nc = result.numConfigs;
    for (std::size_t i = 0; i < result.timing.size(); ++i) {
        const sweep::TimingPoint &point = result.timing[i];
        const sweep::WorkloadSpec &w = spec.workloads[i / nc];
        const ooo::MachineConfig &config = spec.configs[i % nc];
        const std::string name = pointName(point.workload, point.config);
        const ooo::OooStats &s = point.stats;
        if (s.instructions != w.timed)
            out.fail(name, "ooo.instructions " +
                               number(static_cast<double>(
                                   s.instructions)) +
                               " != timed " +
                               number(static_cast<double>(w.timed)));
        if (s.cycles == 0 ||
            static_cast<double>(s.instructions) >
                static_cast<double>(config.issueWidth) *
                    static_cast<double>(s.cycles))
            out.fail(name, "ooo.ipc above issue width " +
                               std::to_string(config.issueWidth));
        if (point.sampling.enabled) {
            if (point.sampling.simulatedInsts >=
                point.sampling.totalInsts)
                out.fail(name, "sampling.simulated_insts " +
                                   std::to_string(
                                       point.sampling.simulatedInsts) +
                                   " not below total_insts " +
                                   std::to_string(
                                       point.sampling.totalInsts));
        } else if (config.hierarchy.contention.anyEnabled() &&
                   s.cpiStack.total() != s.cycles) {
            out.fail(name, "ooo.cpi_stack sum " +
                               std::to_string(s.cpiStack.total()) +
                               " != cycles " + std::to_string(s.cycles));
        }
    }
    for (std::size_t wi = 0; wi < result.region.size(); ++wi) {
        const sweep::RegionPoint &point = result.region[wi];
        const sweep::WorkloadSpec &w = spec.workloads[wi];
        const std::string name = pointName(point.workload, "regionstudy");
        if (point.instructions == 0 ||
            (w.studyInsts && point.instructions != w.studyInsts))
            out.fail(name, "profile.instructions " +
                               std::to_string(point.instructions) +
                               " != study window " +
                               std::to_string(w.studyInsts));
        for (const auto &[scheme, report] : point.schemes)
            if (report.total == 0 || report.correct > report.total)
                out.fail(name, "scheme." + scheme +
                                   ".correct outside [0, mem refs]");
    }
    out.attempted += result.timing.size() + result.region.size();
}

} // namespace perfbench
