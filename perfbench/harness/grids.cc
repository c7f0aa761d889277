#include "grids.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common.hh"
#include "sim/l2_study.hh"
#include "trace/reuse_profile.hh"
#include "workloads/benchmark.hh"

namespace perfbench {

using sbsim::MemorySystemConfig;
using sbsim::RunOutput;
using sbsim::ScaleLevel;
using sbsim::SweepJob;
using sbsim::service::RunSpec;

namespace {

/** Sweep grid inputs: the paper's full trace length. */
constexpr std::uint64_t kSweepRefs = 1500000;

const char *
scaleName(ScaleLevel s)
{
    switch (s) {
      case ScaleLevel::SMALL:
        return "small";
      case ScaleLevel::DEFAULT:
        return "default";
      case ScaleLevel::LARGE:
        return "large";
    }
    return "default";
}

RunSpec
inputSpec(const std::string &bench, ScaleLevel scale, std::uint64_t refs)
{
    RunSpec spec;
    spec.benchmark = bench;
    spec.scale = scale;
    spec.refs = refs;
    return spec;
}

/** The three Fig. 3/5/9 allocation variants of @p base. */
std::vector<RunSpec>
allocationVariants(const RunSpec &base)
{
    RunSpec always = base;
    RunSpec filter = base;
    filter.unitFilter = true;
    RunSpec czone = filter;
    czone.czoneBits = 18;
    return {always, filter, czone};
}

std::vector<std::uint32_t>
streamCounts()
{
    std::vector<std::uint32_t> v;
    for (std::uint32_t s = 1; s <= 10; ++s)
        v.push_back(s);
    return v;
}

MemorySystemConfig
l2StudyConfig(const sbsim::CacheConfig &l2)
{
    MemorySystemConfig config = sbsim::paperSystemConfig();
    config.useStreams = false;
    config.useL2 = true;
    config.l2 = l2;
    return config;
}

std::string
l2Label(const std::string &bench, ScaleLevel scale,
        const sbsim::CacheConfig &c)
{
    return bench + '/' + scaleName(scale) + "/l2_" +
           std::to_string(c.sizeBytes / 1024) + "k_a" +
           std::to_string(c.assoc) + "_b" + std::to_string(c.blockSize);
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::SWEEP_EXACT, Workload::SWEEP_SAMPLED,
                       Workload::L2_STUDY, Workload::SERVE_MIX}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::SWEEP_EXACT:
        return "sweep-exact";
      case Workload::SWEEP_SAMPLED:
        return "sweep-sampled";
      case Workload::L2_STUDY:
        return "l2-study";
      case Workload::SERVE_MIX:
        return "serve-mix";
    }
    return "?";
}

std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (const sbsim::Benchmark &b : sbsim::allBenchmarks())
        names.push_back(b.name);
    return names;
}

std::vector<RunSpec>
workloadInputs(Workload w)
{
    std::vector<RunSpec> inputs;
    for (const std::string &b : benchmarkNames()) {
        switch (w) {
          case Workload::SWEEP_EXACT:
          case Workload::SWEEP_SAMPLED:
            inputs.push_back(inputSpec(b, ScaleLevel::LARGE, kSweepRefs));
            break;
          case Workload::L2_STUDY:
            inputs.push_back(
                inputSpec(b, ScaleLevel::DEFAULT, kSweepRefs));
            inputs.push_back(inputSpec(b, ScaleLevel::LARGE, kSweepRefs));
            break;
          case Workload::SERVE_MIX:
            inputs.push_back(
                inputSpec(b, ScaleLevel::DEFAULT, kServeRefs));
            break;
        }
    }
    return inputs;
}

std::vector<MemorySystemConfig>
streamConfigs(Workload w)
{
    std::vector<MemorySystemConfig> configs;
    RunSpec base;
    switch (w) {
      case Workload::SWEEP_EXACT:
      case Workload::SWEEP_SAMPLED:
        for (const RunSpec &variant : allocationVariants(base)) {
            for (std::uint32_t s : streamCounts()) {
                RunSpec point = variant;
                point.streams = s;
                configs.push_back(sbsim::service::specSystemConfig(point));
            }
        }
        break;
      case Workload::L2_STUDY:
        // The study runs streams off; replay the paper's default
        // stream system over the same miss streams for comparison.
        configs.push_back(sbsim::service::specSystemConfig(base));
        break;
      case Workload::SERVE_MIX:
        // The run requests' two systems: unit filter off and on.
        configs.push_back(sbsim::service::specSystemConfig(base));
        base.unitFilter = true;
        configs.push_back(sbsim::service::specSystemConfig(base));
        break;
    }
    return configs;
}

std::vector<SweepJob>
gridJobs(Workload w)
{
    std::vector<SweepJob> jobs;
    auto append = [&jobs](std::vector<SweepJob> more,
                          const std::string &prefix) {
        for (SweepJob &job : more) {
            job.label = prefix + job.label;
            jobs.push_back(std::move(job));
        }
    };
    switch (w) {
      case Workload::SWEEP_EXACT:
      case Workload::SWEEP_SAMPLED:
        for (const RunSpec &input : workloadInputs(w)) {
            const char *names[] = {"always", "filter", "czone18"};
            std::vector<RunSpec> variants = allocationVariants(input);
            for (std::size_t v = 0; v < variants.size(); ++v) {
                RunSpec spec = variants[v];
                if (w == Workload::SWEEP_SAMPLED)
                    spec.fidelity = sbsim::Fidelity::SAMPLED;
                append(sbsim::service::buildSweepJobs(spec,
                                                      streamCounts()),
                       input.benchmark + '/' + names[v] + "/streams=");
            }
        }
        break;
      case Workload::L2_STUDY:
        for (const RunSpec &input : workloadInputs(w)) {
            for (const sbsim::CacheConfig &c :
                 sbsim::table4CandidateConfigs()) {
                SweepJob job = sbsim::benchmarkJob(
                    input.benchmark, input.scale, l2StudyConfig(c),
                    l2Label(input.benchmark, input.scale, c),
                    input.refs);
                job.l2Model = sbsim::L2ModelKind::BOTH;
                jobs.push_back(std::move(job));
            }
        }
        break;
      case Workload::SERVE_MIX:
        for (const ServeRequest &req : serveUniverse()) {
            std::vector<std::uint32_t> values =
                req.sweep ? req.values
                          : std::vector<std::uint32_t>{req.spec.streams};
            append(sbsim::service::buildSweepJobs(req.spec, values),
                   req.spec.benchmark + '/' +
                       (req.sweep ? "sweep" : "run") + "/streams=");
        }
        break;
    }
    return jobs;
}

std::uint64_t
representedRefs(const RunOutput &out)
{
    return out.sampling.mode == "sampled" ? out.sampling.estimatedRefs
                                          : out.results.references;
}

std::string
outputDocument(const RunOutput &out)
{
    std::ostringstream doc;
    sbsim::runMetrics(out).writeJson(doc);
    return doc.str();
}

RunOutput
oracleOutput(const SweepJob &job)
{
    if (job.fidelity == sbsim::Fidelity::SAMPLED) {
        std::shared_ptr<const sbsim::MaterializedTrace> trace =
            job.materialize();
        sbsim::SamplingPlan plan =
            sbsim::buildSamplingPlan(*trace, sbsim::PhaseProfileConfig{});
        return sbsim::runSampled(trace, plan, job.config);
    }
    std::unique_ptr<sbsim::TraceSource> src = job.makeSource();
    RunOutput out = sbsim::runOnce(*src, job.config);
    if (job.l2Model == sbsim::L2ModelKind::SIMULATED)
        return out;
    // Independent analytic prediction: a fresh recording of the
    // front end, profiled with the job's own geometry only.
    std::unique_ptr<sbsim::TraceSource> again = job.makeSource();
    sbsim::MissTrace miss = sbsim::recordMissTrace(*again, job.config);
    const sbsim::CacheConfig &l2 = job.config.l2;
    const bool covered = l2.numSets() > 1 && l2.assoc <= 16;
    sbsim::ReuseProfiler profile(l2.blockSize, !covered);
    if (covered)
        profile.trackGeometry(static_cast<std::uint32_t>(l2.numSets()),
                              l2.assoc);
    sbsim::profileMissTraceInto(profile, miss);
    sbsim::AnalyticL2Model model(profile);
    sbsim::L2AnalyticReport &rep = out.l2Analytic;
    rep.model = sbsim::toString(job.l2Model);
    rep.predictedMissRatioPct = model.predictMissRatioPercent(l2);
    rep.predictedHitRatePct = model.predictLocalHitRatePercent(l2);
    rep.profiledMisses = profile.references();
    rep.uniqueBlocks = profile.uniqueBlocks();
    if (job.l2Model == sbsim::L2ModelKind::BOTH && job.config.useL2 &&
        profile.references() > 0) {
        rep.simulatedMissRatioPct =
            100.0 - out.results.l2LocalHitRatePercent;
        rep.absErrorPct =
            std::abs(rep.predictedMissRatioPct - rep.simulatedMissRatioPct);
    }
    return out;
}

std::string
ServeRequest::line(std::uint64_t id) const
{
    std::string s = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                    (sweep ? "sweep" : "run") +
                    "\",\"spec\":{\"benchmark\":\"" + spec.benchmark +
                    "\",\"scale\":\"" + scaleName(spec.scale) +
                    "\",\"refs\":" + std::to_string(spec.refs) +
                    ",\"streams\":" + std::to_string(spec.streams) +
                    ",\"filter\":" + (spec.unitFilter ? "true" : "false") +
                    ",\"fidelity\":\"" + sbsim::toString(spec.fidelity) +
                    "\"}";
    if (sweep) {
        s += ",\"values\":[";
        for (std::size_t i = 0; i < values.size(); ++i)
            s += (i ? "," : "") + std::to_string(values[i]);
        s += ']';
    }
    return s + "}\n";
}

std::vector<ServeRequest>
serveUniverse()
{
    std::vector<ServeRequest> universe;
    for (const std::string &b : benchmarkNames()) {
        for (bool filter : {false, true}) {
            RunSpec spec = inputSpec(b, ScaleLevel::DEFAULT, kServeRefs);
            spec.unitFilter = filter;
            ServeRequest exact{false, spec, {}};
            ServeRequest sampled{false, spec, {}};
            sampled.spec.fidelity = sbsim::Fidelity::SAMPLED;
            ServeRequest sweep{true, spec, {2, 5, 10}};
            universe.push_back(exact);
            universe.push_back(sampled);
            universe.push_back(sweep);
        }
    }
    return universe;
}

std::vector<std::size_t>
requestSequence(const std::vector<ServeRequest> &universe,
                std::uint64_t seed, std::size_t count)
{
    std::vector<std::size_t> seq;
    std::uint64_t state = seed;
    while (seq.size() < count) {
        for (std::size_t k :
             seededPermutation(universe.size(), splitmix64(state)))
            seq.push_back(k);
    }
    seq.resize(count);
    return seq;
}

std::string
stripSweepTimings(const std::string &doc)
{
    std::string out = doc.substr(0, doc.find("],\"aggregate\":"));
    for (const char *field : {",\"wall_seconds\":", ",\"refs_per_second\":"}) {
        std::string key = field;
        for (std::size_t at; (at = out.find(key)) != std::string::npos;) {
            std::size_t end = out.find(',', at + key.size());
            out.erase(at, end - at);
        }
    }
    return out;
}

std::string
expectedDocument(const ServeRequest &req)
{
    if (!req.sweep)
        return outputDocument(
            sbsim::service::executeRun(req.spec, nullptr, false).output);
    std::vector<SweepJob> jobs =
        sbsim::service::buildSweepJobs(req.spec, req.values);
    std::vector<sbsim::SweepResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        results[i].label = jobs[i].label;
        results[i].output = oracleOutput(jobs[i]);
        results[i].references = results[i].output.results.references;
    }
    std::ostringstream doc;
    sbsim::writeSweepJson(results, doc);
    return stripSweepTimings(doc.str());
}

sbsim::SweepRunner
benchRunner()
{
    sbsim::SweepRunner runner(hostThreads());
    runner.setHeartbeat(false);
    runner.setCacheReport(false);
    runner.setTraceCacheEnabled(true);
    return runner;
}

Accuracy
accuracyProbe()
{
    Accuracy acc;
    std::vector<RunSpec> inputs = workloadInputs(Workload::SWEEP_EXACT);
    std::vector<double> sampled_err(inputs.size());
    sbsim::parallelFor(inputs.size(), hostThreads(), [&](std::size_t i) {
        RunSpec exact = inputs[i];
        RunSpec sampled = exact;
        sampled.fidelity = sbsim::Fidelity::SAMPLED;
        double e = sbsim::service::executeRun(exact, nullptr, false)
                       .output.results.l1MissRatePercent;
        double s = sbsim::service::executeRun(sampled, nullptr, false)
                       .output.results.l1MissRatePercent;
        sampled_err[i] = std::abs(s - e);
    });
    acc.sampledErrPts =
        *std::max_element(sampled_err.begin(), sampled_err.end());

    for (const sbsim::SweepResult &r :
         benchRunner().run(gridJobs(Workload::L2_STUDY)))
        acc.analyticErrPts =
            std::max(acc.analyticErrPts, r.output.l2Analytic.absErrorPct);
    return acc;
}

} // namespace perfbench
