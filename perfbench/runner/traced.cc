#include "runner/traced.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "assembler/assembler.hh"
#include "cache/hierarchy.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "corpus/corpus.hh"
#include "obs/hooks.hh"
#include "ooo/core.hh"
#include "predict/arpt.hh"
#include "profile/region_profiler.hh"
#include "profile/window_profiler.hh"
#include "runner/grids.hh"
#include "sampling/sampling.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

using namespace arl;

namespace perfbench
{

namespace
{

/** Steps replayed per chunk of the region pass. */
constexpr std::size_t kChunk = 4096;
/** Record cap of the probes that run on a grid trace. */
constexpr InstCount kProbeInsts = 400000;
/** Timed instructions of the exact-point probe. */
constexpr InstCount kProbeTimed = 30000;

/** A row's shared artifacts, as runSweep's phase 1 prepares them. */
struct Row
{
    std::shared_ptr<const vm::Program> program;
    std::shared_ptr<const trace::InMemoryTrace> trace;
    sampling::SamplingPlan plan;
};

/** One memory reference of a recorded stream. */
struct MemOp
{
    Addr pc = 0;
    Addr addr = 0;
    Word gbh = 0;
    Word cid = 0;
    InstCount seq = 0;
    bool write = false;
    bool stack = false;
};

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        fatal("perfbench: cannot read '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

/** Records runSweep captures for @p w (sweep.cc traceNeed). */
InstCount
traceNeed(const sweep::WorkloadSpec &w, bool timing, bool region)
{
    bool full = false;
    InstCount need = 0;
    if (timing) {
        if (w.timed == 0)
            full = true;
        else
            need = w.warmup + w.timed;
    }
    if (region) {
        if (w.studyInsts == 0)
            full = true;
        else
            need = std::max(need, w.studyInsts);
    }
    return full ? 0 : need;
}

/** The v2 cache entry runSweep writes for @p w (sweep.cc key). */
std::string
cachePath(const sweep::SweepSpec &spec, const sweep::WorkloadSpec &w,
          InstCount need, const std::string &source)
{
    std::string key;
    if (!w.sourcePath.empty()) {
        char crc[16];
        std::snprintf(crc, sizeof crc, "%08x",
                      crc32(source.data(), source.size()));
        key = "corpus-" + w.name + "-" + crc + "-";
    } else {
        key = w.name + "-s" + std::to_string(w.scale) + "-";
    }
    if (need) {
        key += 'n';
        key += std::to_string(need);
    } else {
        key += "full";
    }
    key += std::string("-") + trace::formatName(spec.traceFormat);
    return spec.traceCacheDir + "/" + key + ".arlt";
}

class Tracer
{
  public:
    Tracer(SpanRecorder &recorder, LayerCounts &counts)
        : rec(recorder), n(counts)
    {
    }

    Row
    prepare(const sweep::SweepSpec &spec, const sweep::WorkloadSpec &w)
    {
        ScopedSpan span(rec, "sweep.prepare");
        Row row;
        std::string source;
        if (w.sourcePath.empty()) {
            ScopedSpan s(rec, "workloads.build");
            row.program = workloads::buildWorkload(w.name, w.scale);
        } else {
            source = readFile(w.sourcePath);
            row.program = assemble(source, w.name);
        }
        InstCount need = traceNeed(w, !spec.configs.empty(),
                                   !spec.schemes.empty());
        if (!spec.traceCacheDir.empty()) {
            ScopedSpan s(rec, "trace.decode");
            row.trace = trace::loadTrace(cachePath(spec, w, need, source));
            if (row.trace)
                n.decoded += row.trace->size();
        }
        if (!spec.traceCacheDir.empty() && !row.trace)
            fatal("perfbench: %s is not in the trace cache", w.name.c_str());
        if (!row.trace)
            row.trace = record(row.program, need,
                               spec.checkpointEvery
                                   ? spec.checkpointEvery
                                   : trace::DefaultBlockRecords);
        const trace::InMemoryTrace &t = *row.trace;
        n.traceRecords += t.size();
        n.traceBytes += t.records.size() * sizeof(trace::TraceRecord) +
                        t.decoded.size() * sizeof(isa::DecodedInst) +
                        t.checkpoints.size() *
                            sizeof(trace::ArchCheckpoint);
        if (spec.sampling && !spec.configs.empty())
            row.plan = plan(spec, *row.trace, w.warmup, w.timed);
        return row;
    }

    std::shared_ptr<const trace::InMemoryTrace>
    record(const std::shared_ptr<const vm::Program> &program,
           InstCount need, InstCount checkpoint_every =
                               trace::DefaultBlockRecords)
    {
        ScopedSpan s(rec, "sim.record");
        auto t = trace::recordToMemory(program, need, checkpoint_every);
        n.recorded += t->size();
        return t;
    }

    std::shared_ptr<const vm::Program>
    assemble(const std::string &source, const std::string &name)
    {
        ScopedSpan s(rec, "assembler.assemble");
        assembler::AsmResult result = assembler::assemble(source, name);
        if (!result.ok())
            fatal("perfbench: %s does not assemble", name.c_str());
        return result.program;
    }

    sampling::SamplingPlan
    plan(const sweep::SweepSpec &spec, const trace::InMemoryTrace &t,
         InstCount start, InstCount limit)
    {
        ScopedSpan s(rec, "sampling.plan");
        sampling::SamplingConfig sc;
        sc.intervalInsts = spec.samplingInterval;
        sc.clusters = spec.samplingClusters;
        sc.warmupInsts = spec.samplingWarmup;
        sampling::SamplingPlan out;
        std::string err;
        if (!sampling::buildPlan(t, sc, start, limit, out, &err))
            fatal("perfbench: %s", err.c_str());
        return out;
    }

    /** One exact timing point, as runSweep's Exact job runs it. */
    ooo::OooStats
    exactPoint(const sweep::SweepSpec &spec, const sweep::WorkloadSpec &w,
               const ooo::MachineConfig &base, const Row &row)
    {
        ScopedSpan span(rec, "sweep.point");
        ooo::MachineConfig config = base;
        if (spec.cpiStack)
            config.cpiStack = true;
        auto source = std::make_shared<trace::ReplaySource>(row.trace);
        InstCount window = w.warmup;
        if (w.warmupWindow && w.warmupWindow < window)
            window = w.warmupWindow;
        InstCount ff_skip = 0;
        if (spec.seekFastForward && w.warmup > window) {
            ff_skip = row.trace->checkpointAtOrBelow(w.warmup - window);
            if (ff_skip) {
                ScopedSpan s(rec, "trace.seek");
                source->seekTo(ff_skip);
            }
        }
        obs::Hooks hooks;
        std::unique_ptr<ooo::OooCore> core = construct(config, row, source);
        core->attachObs(&hooks);
        if (w.warmup) {
            ScopedSpan s(rec, "ooo.warmup");
            core->warmup(w.warmup - ff_skip, window);
            n.warmupInsts += w.warmup - ff_skip;
        }
        ooo::OooStats stats;
        {
            ScopedSpan s(rec, "ooo.run");
            stats = core->run(w.timed);
        }
        n.runInsts += stats.instructions;
        n.cycles += stats.cycles;
        finalize(hooks);
        return stats;
    }

    /** One sampled representative, as runSweep's rep job runs it. */
    sampling::RepMeasurement
    sampleRep(const sweep::SweepSpec &spec, const ooo::MachineConfig &base,
              const Row &row, const sampling::Representative &rep)
    {
        ScopedSpan span(rec, "sweep.sample");
        ooo::MachineConfig config = base;
        if (spec.cpiStack)
            config.cpiStack = true;
        auto source = std::make_shared<trace::ReplaySource>(row.trace);
        if (rep.warmupStart) {
            ScopedSpan s(rec, "trace.seek");
            source->seekTo(rep.warmupStart);
        }
        obs::Hooks hooks;
        std::unique_ptr<ooo::OooCore> core = construct(config, row, source);
        core->attachObs(&hooks);
        const InstCount warm = rep.start - rep.warmupStart;
        if (warm > rep.detail) {
            ScopedSpan s(rec, "ooo.warmup");
            core->warmup(warm - rep.detail, 0);
            n.warmupInsts += warm - rep.detail;
        }
        ooo::OooStats stats;
        {
            ScopedSpan s(rec, "ooo.sample");
            stats = core->runSample(rep.length, rep.detail);
        }
        n.sampleInsts += rep.detail + stats.instructions;
        n.cycles += stats.cycles;
        finalize(hooks);
        return {stats.cycles, stats.instructions};
    }

    /** One region-study pass; fills @p point like runSweep does. */
    void
    regionPass(const std::vector<sweep::SchemeSpec> &schemes,
               InstCount study, const Row &row, sweep::RegionPoint &point)
    {
        ScopedSpan span(rec, "sweep.region");
        profile::RegionProfiler region_profiler;
        profile::WindowProfiler win32(32);
        profile::WindowProfiler win64(64);
        std::vector<std::unique_ptr<predict::RegionPredictor>> predictors;
        for (const sweep::SchemeSpec &scheme : schemes)
            predictors.push_back(std::make_unique<predict::RegionPredictor>(
                scheme.config, nullptr));
        trace::ReplaySource source(row.trace);
        std::vector<sim::StepInfo> chunk(kChunk);
        // Predictors and profilers are independent observers, so
        // feeding each a chunk in turn matches runSweep's per-step
        // interleaving exactly.
        for (;;) {
            std::size_t got = 0;
            {
                ScopedSpan s(rec, "trace.replay");
                while (got < kChunk &&
                       (!study || point.instructions + got < study) &&
                       source.next(chunk[got]))
                    ++got;
            }
            if (got == 0)
                break;
            n.replayed += got;
            point.instructions += got;
            {
                ScopedSpan s(rec, "profile.observe");
                for (std::size_t i = 0; i < got; ++i) {
                    region_profiler.observe(chunk[i]);
                    win32.observe(chunk[i]);
                    win64.observe(chunk[i]);
                }
            }
            n.profileSteps += got;
            {
                ScopedSpan s(rec, "predict.observe");
                for (auto &predictor : predictors)
                    for (std::size_t i = 0; i < got; ++i)
                        predictor->observe(chunk[i]);
            }
            n.predictObserves += got * predictors.size();
        }
        point.profile = region_profiler.profile();
        point.window32 = win32.stats_summary();
        point.window64 = win64.stats_summary();
        for (std::size_t i = 0; i < schemes.size(); ++i)
            point.schemes.emplace_back(schemes[i].name,
                                       predictors[i]->report());
    }

    /** The memory references of the first @p cap records of @p t. */
    std::vector<MemOp>
    memStream(const std::shared_ptr<const trace::InMemoryTrace> &t,
              InstCount cap)
    {
        ScopedSpan s(rec, "trace.replay");
        std::vector<MemOp> ops;
        trace::ReplaySource source(t);
        sim::StepInfo step;
        InstCount seen = 0;
        while (seen < cap && source.next(step)) {
            ++seen;
            if (!step.isMem)
                continue;
            MemOp op;
            op.pc = step.pc;
            op.addr = step.effAddr;
            op.gbh = step.gbh;
            op.cid = step.cid;
            op.seq = step.seq;
            op.write = !step.isLoad;
            op.stack = step.region == vm::Region::Stack;
            ops.push_back(op);
        }
        n.replayed += seen;
        return ops;
    }

    /** cache.ideal / cache.contended over @p ops, as (3+1) routes them. */
    void
    cacheProbe(const std::vector<MemOp> &ops)
    {
        ooo::MachineConfig ideal = ooo::MachineConfig::nPlusM(3, 1);
        ooo::MachineConfig contended = ideal;
        contended.applyContention(contendedKnobs());
        {
            ScopedSpan s(rec, "cache.ideal");
            cache::Hierarchy h(ideal.hierarchy);
            for (const MemOp &op : ops)
                h.access(op.stack ? cache::MemPipe::Lvc
                                  : cache::MemPipe::DCache,
                         op.addr, op.write);
        }
        {
            // Four instructions per modelled cycle, so same-cycle
            // references meet in the banks and on the bus.
            ScopedSpan s(rec, "cache.contended");
            cache::Hierarchy h(contended.hierarchy);
            for (const MemOp &op : ops)
                h.timedAccess(op.stack ? cache::MemPipe::Lvc
                                       : cache::MemPipe::DCache,
                              op.addr, op.write, op.seq / 4);
        }
        n.idealAccesses += ops.size();
        n.contendedAccesses += ops.size();
    }

    /** predict.arpt: the §4.3 32K 1-bit hybrid table over @p ops. */
    void
    arptProbe(const std::vector<MemOp> &ops)
    {
        ScopedSpan s(rec, "predict.arpt");
        predict::Arpt arpt(finiteHybrid(32 * 1024).config.arpt);
        for (const MemOp &op : ops) {
            arpt.predictStack(op.pc, op.gbh, op.cid);
            arpt.update(op.pc, op.gbh, op.cid, op.stack);
        }
        n.arptOps += ops.size();
    }

    /** trace.encode + trace.decode of @p t through a v2 file. */
    void
    codecProbe(const trace::InMemoryTrace &t, const std::string &path)
    {
        {
            ScopedSpan s(rec, "trace.encode");
            trace::saveTrace(path, t, trace::TraceFormat::V2);
        }
        std::shared_ptr<const trace::InMemoryTrace> back;
        {
            ScopedSpan s(rec, "trace.decode");
            back = trace::loadTrace(path);
        }
        std::remove(path.c_str());
        if (!back || back->size() != t.size())
            fatal("perfbench: codec probe lost records");
        n.decoded += back->size();
    }

  private:
    std::unique_ptr<ooo::OooCore>
    construct(const ooo::MachineConfig &config, const Row &row,
              std::shared_ptr<trace::ReplaySource> source)
    {
        ScopedSpan s(rec, "ooo.construct");
        return std::make_unique<ooo::OooCore>(config, row.program,
                                              std::move(source));
    }

    void
    finalize(obs::Hooks &hooks)
    {
        ScopedSpan s(rec, "obs.finalize");
        hooks.finalize();
    }

    SpanRecorder &rec;
    LayerCounts &n;
};

std::string
pointName(const std::string &workload, const std::string &config)
{
    return workload + "|" + config;
}

} // namespace

TracedIteration
runTraced(const sweep::SweepSpec &spec, SpanRecorder &rec,
          const std::string &corpus_dir, const std::string &scratch_dir)
{
    TracedIteration it;
    it.first = rec.spans().size();
    it.gridFirst = it.first;
    Tracer tr(rec, it.counts);
    const std::size_t nw = spec.workloads.size();
    const std::size_t nc = spec.configs.size();
    const bool sampled = spec.sampling && nc != 0;
    std::vector<Row> rows(nw);
    {
        ScopedSpan grid(rec, "sweep.grid");
        for (std::size_t wi = 0; wi < nw; ++wi)
            rows[wi] = tr.prepare(spec, spec.workloads[wi]);
        for (std::size_t wi = 0; wi < nw; ++wi) {
            const sweep::WorkloadSpec &w = spec.workloads[wi];
            for (std::size_t ci = 0; ci < nc; ++ci) {
                PointDigest d;
                d.point = pointName(w.name, spec.configs[ci].name);
                if (!sampled) {
                    ooo::OooStats stats =
                        tr.exactPoint(spec, w, spec.configs[ci], rows[wi]);
                    d.stats = {{"ooo.cycles", double(stats.cycles)},
                               {"ooo.instructions",
                                double(stats.instructions)}};
                    it.digests.push_back(std::move(d));
                    continue;
                }
                const sampling::SamplingPlan &plan = rows[wi].plan;
                std::vector<sampling::RepMeasurement> meas;
                for (const sampling::Representative &rep : plan.reps)
                    meas.push_back(tr.sampleRep(spec, spec.configs[ci],
                                                rows[wi], rep));
                it.counts.detailInsts += plan.simulatedInsts();
                sampling::SampledEstimate est;
                {
                    ScopedSpan s(rec, "sampling.extrapolate");
                    est = sampling::extrapolate(plan, meas);
                }
                d.stats = {
                    {"ooo.cycles", double(std::llround(est.cycles))},
                    {"ooo.instructions", double(plan.totalInsts)},
                    {"sampling.simulated_insts",
                     double(est.report.simulatedInsts)}};
                it.digests.push_back(std::move(d));
            }
        }
        for (std::size_t wi = 0; wi < nw && !spec.schemes.empty(); ++wi) {
            sweep::RegionPoint point;
            point.workload = spec.workloads[wi].name;
            tr.regionPass(spec.schemes, spec.workloads[wi].studyInsts,
                          rows[wi], point);
            PointDigest d;
            d.point = pointName(point.workload, "regionstudy");
            d.stats.emplace_back("profile.instructions",
                                 double(point.instructions));
            d.stats.emplace_back("profile.mem_refs",
                                 double(point.schemes[0].second.total));
            for (const auto &[name, report] : point.schemes)
                d.stats.emplace_back("scheme." + name + ".correct",
                                     double(report.correct));
            it.digests.push_back(std::move(d));
        }
    }
    it.gridLast = rec.spans().size();

    // Probes: every layer the grid did not reach runs once on the
    // first row's program and trace, so each per-layer metric is
    // measured on every workload.
    {
        ScopedSpan probe(rec, "probe.layers");
        const sweep::WorkloadSpec &w0 = spec.workloads.front();
        const Row &r0 = rows.front();
        std::vector<MemOp> ops = tr.memStream(r0.trace, kProbeInsts);
        tr.cacheProbe(ops);
        tr.arptProbe(ops);
        if (spec.traceCacheDir.empty())
            tr.codecProbe(*r0.trace, scratch_dir + "/codec_probe.arlt");
        else
            tr.record(r0.program, kProbeInsts);
        bool corpus_rows = false;
        for (const sweep::WorkloadSpec &w : spec.workloads)
            corpus_rows |= !w.sourcePath.empty();
        if (!corpus_rows) {
            std::vector<corpus::Entry> entries;
            std::string error;
            if (!corpus::discoverCorpus(corpus_dir, entries, &error))
                fatal("perfbench: %s", error.c_str());
            for (const corpus::Entry &entry : entries)
                tr.assemble(readFile(entry.sourcePath), entry.name);
        }
        if (spec.schemes.empty()) {
            sweep::RegionPoint point;
            tr.regionPass(core::toSweepSchemes(core::figure4Schemes()),
                          kProbeInsts, r0, point);
        }
        const ooo::MachineConfig base = ooo::MachineConfig::nPlusM(2, 0);
        if (nc == 0 || sampled) {
            sweep::WorkloadSpec w = w0;
            w.warmup = workloads::workloadByName(w0.name).warmupInsts;
            w.timed = kProbeTimed;
            tr.exactPoint(spec, w, base, r0);
        }
        if (!sampled) {
            InstCount start = nc ? w0.warmup : 0;
            sampling::SamplingPlan plan =
                tr.plan(spec, *r0.trace, start, nc ? w0.timed : 0);
            it.counts.detailInsts += plan.simulatedInsts();
            tr.sampleRep(spec, base, r0, plan.reps.front());
        }
    }
    it.last = rec.spans().size();
    return it;
}

std::map<std::string, double>
layerMetrics(const SpanRecorder &rec, const TracedIteration &it,
             double untraced_wall, double report_s)
{
    const LayerCounts &n = it.counts;
    auto sec = [&](const char *name) {
        return rec.seconds(name, it.first, it.last);
    };
    auto rate = [](double work, double seconds) {
        return seconds > 0.0 ? work / 1e6 / seconds : 0.0;
    };
    std::map<std::string, double> m;
    m["workloads.build_s"] = sec("workloads.build");
    m["assembler.assemble_s"] = sec("assembler.assemble");
    m["sim.record_mips"] = rate(double(n.recorded), sec("sim.record"));
    m["trace.decode_mrps"] = rate(double(n.decoded), sec("trace.decode"));
    m["trace.replay_mrps"] = rate(double(n.replayed), sec("trace.replay"));
    m["trace.mem_bytes_per_rec"] =
        n.traceRecords ? double(n.traceBytes) / double(n.traceRecords)
                       : 0.0;
    m["ooo.warmup_mips"] = rate(double(n.warmupInsts), sec("ooo.warmup"));
    m["ooo.run_mips"] = rate(double(n.runInsts), sec("ooo.run"));
    m["ooo.sample_mips"] = rate(double(n.sampleInsts), sec("ooo.sample"));
    m["ooo.host_ns_per_cycle"] =
        n.cycles ? (sec("ooo.run") + sec("ooo.sample")) * 1e9 /
                       double(n.cycles)
                 : 0.0;
    m["ooo.cycles"] = double(n.cycles);
    m["cache.ideal_mops"] = rate(double(n.idealAccesses),
                                 sec("cache.ideal"));
    m["cache.contended_mops"] = rate(double(n.contendedAccesses),
                                     sec("cache.contended"));
    m["predict.observe_mips"] = rate(double(n.predictObserves),
                                     sec("predict.observe"));
    m["predict.arpt_mops"] = rate(double(n.arptOps), sec("predict.arpt"));
    m["profile.observe_mips"] = rate(double(n.profileSteps),
                                     sec("profile.observe"));
    m["sampling.plan_s"] = sec("sampling.plan");
    m["sampling.detail_insts"] = double(n.detailInsts);

    // runSweep's own cost: its wall time minus the layer calls it
    // drives, taken as the traced grid's spans directly below a
    // sweep.* span.
    const auto &spans = rec.spans();
    double layer_s = 0.0;
    for (std::size_t i = it.gridFirst; i < it.gridLast; ++i) {
        int p = spans[i].parent;
        if (p >= 0 && SpanRecorder::layerOf(spans[i].name) != "sweep" &&
            SpanRecorder::layerOf(spans[std::size_t(p)].name) == "sweep")
            layer_s += spans[i].seconds();
    }
    m["sweep.overhead_s"] = untraced_wall - layer_s;
    m["obs.report_s"] = report_s;
    double traced_wall = spans[it.gridFirst].seconds();
    m["trace_overhead_pct"] =
        untraced_wall > 0.0
            ? 100.0 * (traced_wall - untraced_wall) / untraced_wall
            : 0.0;
    for (const char *layer :
         {"workloads", "assembler", "sim", "trace", "ooo", "cache",
          "predict", "profile", "sampling", "sweep", "obs"})
        m[std::string(layer) + ".self_s"] = 0.0;
    for (const auto &[layer, self] :
         rec.selfSecondsByLayer(it.first, it.last))
        if (m.count(layer + ".self_s"))
            m[layer + ".self_s"] = self;
    m["obs.self_s"] += report_s;
    return m;
}

} // namespace perfbench
