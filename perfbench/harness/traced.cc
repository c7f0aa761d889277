/**
 * @file
 * The traced per-layer run. The harness calls each layer's public
 * entry point itself, on the workload's own inputs, inside a span
 * (name, start, end, parent, request id) kept in memory and written
 * out at the end. A layer's self time is its spans' duration minus
 * the part covered by child spans. The self times of the layer spans
 * plus the explicit remainder (the self time of the grouping spans)
 * must match the traced total as a separate clock, read outside the
 * root span, measures it, and the remainder must stay under
 * kRemainderBound. The same sequence also runs untraced (a warm-up
 * before the traced pass and a base after it), so the tracing
 * overhead is measured rather than assumed.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "harness.hh"
#include "serve.hh"
#include "service/json.hh"
#include "sim/l2_study.hh"
#include "trace/trace_cache.hh"

namespace perfbench {

namespace {

/** Largest share of the traced total the harness itself may take. */
constexpr double kRemainderBound = 0.05;
/** Largest share of the traced total by which the span sum may differ
 *  from the clock read around the root span. */
constexpr double kClockTolerance = 0.01;
/** Requests the traced serve-mix session sends. */
constexpr std::size_t kTracedServeRequests = 45;

/** Spans that only group others; their self time is the remainder. */
const std::set<std::string> kGroupingSpans = {"traced_total", "input",
                                              "service.session"};

/** Every layer span the traced run must emit. */
const std::vector<std::string> kLayerSpans = {
    "workloads.gen",      "trace.materialize", "trace.phase_profile",
    "sim.sampled",        "sim.frontend",      "stream.replay",
    "cache.l2_replay",    "trace.reuse_profile", "sim.analytic",
    "sim.run",            "sweep.prime",       "sweep.run_primed",
    "sweep.run",          "service.spawn",     "service.request",
    "sim.execute_run",    "service.shutdown"};

struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::uint64_t request = 0;
};

/** Single-threaded span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t request = 0)
            : t_(t), idx_(t.open(name, request))
        {}
        ~Scope() { t_.close(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int idx_;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int
    open(const char *name, std::uint64_t request)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.start = secondsSince(origin_);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.request = request;
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans_[static_cast<std::size_t>(idx)].end = secondsSince(origin_);
        stack_.pop_back();
    }

    bool on_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Work units counted at the same boundaries as the spans. */
struct Counts
{
    double genRefs = 0, materializeRefs = 0, profileRefs = 0;
    double frontendRefs = 0, l1Misses = 0, replayMisses = 0;
    double l2Misses = 0, profiledMisses = 0, analyticConfigs = 0;
    double sampledSimRefs = 0, sampledTotalRefs = 0, runRefs = 0;
    double primeSeconds = 0, primedRunSeconds = 0;
    double runSeconds = 0, jobSecondsSum = 0, workers = 1;
    double refHits = 0, refBuilds = 0, missHits = 0, missBuilds = 0;
    double residentMbMax = 0;
    std::vector<double> overheadMs;
    double requests = 0, rejected = 0, reusedInputs = 0;
    std::uint64_t attempted = 0, failed = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

void
noteCacheDelta(Counts &c, const sbsim::TraceCacheStats &a,
               const sbsim::TraceCacheStats &b)
{
    c.refHits = static_cast<double>(b.refTraceHits - a.refTraceHits);
    c.refBuilds = static_cast<double>(b.refTracesMaterialized -
                                      a.refTracesMaterialized);
    c.missHits = static_cast<double>(b.missTraceHits - a.missTraceHits);
    c.missBuilds = static_cast<double>(b.missTracesRecorded -
                                       a.missTracesRecorded);
}

std::uint64_t
jsonUint(const sbsim::service::JsonValue &obj, const char *key)
{
    const sbsim::service::JsonValue *v = obj.find(key);
    return v ? v->uintValue() : 0;
}

/** Per-input layer calls (steps 1-10 of README's layer table). */
void
traceInputs(Tracer &tr, Counts &c, const Options &opts)
{
    sbsim::TraceCache &cache = sbsim::TraceCache::instance();
    const std::vector<sbsim::MemorySystemConfig> stream_configs =
        streamConfigs(opts.workload);
    const std::vector<sbsim::service::RunSpec> inputs =
        workloadInputs(opts.workload);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const sbsim::service::RunSpec &spec = inputs[i];
        const sbsim::MemorySystemConfig config =
            sbsim::service::specSystemConfig(spec);
        Tracer::Scope in(tr, "input", i);
        {
            Tracer::Scope s(tr, "workloads.gen", i);
            std::unique_ptr<sbsim::TraceSource> src =
                sbsim::service::makeSpecInput(spec);
            sbsim::MemAccess buf[1024];
            for (std::size_t got; (got = src->nextBatch(buf, 1024)) > 0;)
                c.genRefs += static_cast<double>(got);
        }
        std::shared_ptr<const sbsim::MaterializedTrace> trace;
        {
            Tracer::Scope s(tr, "trace.materialize", i);
            trace = cache.getOrMaterialize(
                sbsim::service::specSourceKey(spec),
                [&spec] { return sbsim::service::makeSpecInput(spec); });
        }
        const double refs = static_cast<double>(trace->size());
        c.materializeRefs += refs;
        std::optional<sbsim::SamplingPlan> plan;
        {
            Tracer::Scope s(tr, "trace.phase_profile", i);
            plan = sbsim::buildSamplingPlan(*trace,
                                            sbsim::PhaseProfileConfig{});
        }
        c.profileRefs += refs;
        {
            Tracer::Scope s(tr, "sim.sampled", i);
            sbsim::RunOutput out = sbsim::runSampled(trace, *plan, config);
            c.sampledSimRefs += static_cast<double>(
                out.sampling.simulatedRefs + out.sampling.warmupRefs);
        }
        c.sampledTotalRefs += refs;
        std::optional<sbsim::MissTrace> miss;
        {
            Tracer::Scope s(tr, "sim.frontend", i);
            sbsim::SharedTraceView view(trace);
            miss = sbsim::recordMissTrace(view, config);
        }
        c.frontendRefs += refs;
        const double misses =
            static_cast<double>(miss->summary().l1Misses);
        c.l1Misses += misses;
        for (const sbsim::MemorySystemConfig &sc : stream_configs) {
            Tracer::Scope s(tr, "stream.replay", i);
            sbsim::replayOnce(*miss, sc);
            c.replayMisses += misses;
        }
        {
            Tracer::Scope s(tr, "cache.l2_replay", i);
            sbsim::SecondaryCacheStudy study(
                sbsim::table4CandidateConfigs(), /*sample_log2=*/0);
            c.l2Misses +=
                static_cast<double>(sbsim::replayMissesInto(study, *miss));
        }
        sbsim::AnalyticCacheStudy analytic(sbsim::table4CandidateConfigs());
        {
            Tracer::Scope s(tr, "trace.reuse_profile", i);
            c.profiledMisses += static_cast<double>(
                sbsim::profileMissesInto(analytic, *miss));
        }
        {
            Tracer::Scope s(tr, "sim.analytic", i);
            c.analyticConfigs +=
                static_cast<double>(analytic.results().size());
        }
        {
            Tracer::Scope s(tr, "sim.run", i);
            std::unique_ptr<sbsim::TraceSource> src =
                sbsim::service::makeSpecInput(spec);
            c.runRefs += static_cast<double>(
                sbsim::runOnce(*src, config).results.references);
        }
    }
}

/** Prime the cache the way the runner's pre-passes would, then run
 *  the grid primed; then run it cold as users do. */
void
traceGrid(Tracer &tr, Counts &c, const Options &opts)
{
    sbsim::TraceCache &cache = sbsim::TraceCache::instance();
    const std::vector<sbsim::SweepJob> jobs = gridJobs(opts.workload);
    const sbsim::SweepRunner runner = benchRunner();
    c.workers = runner.jobs();

    auto digest_of = [&jobs](const std::vector<sbsim::SweepResult> &rs) {
        Digest d;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            d.add(jobs[i].label);
            d.add(outputDocument(rs[i].output));
        }
        return d.hex();
    };

    std::string primed_digest;
    {
        // Distinct artifacts the grid needs, keyed as the runner keys
        // them; the harness holds them so the runner finds them
        // resident.
        std::map<std::string, std::size_t> recordings, samplings;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].fidelity == sbsim::Fidelity::SAMPLED)
                samplings.emplace(jobs[i].sourceKey, i);
            else
                recordings.emplace(
                    sbsim::missTraceKey(jobs[i].sourceKey, jobs[i].config),
                    i);
        }
        std::vector<std::pair<std::string, std::size_t>> rec(
            recordings.begin(), recordings.end());
        std::vector<std::pair<std::string, std::size_t>> smp(
            samplings.begin(), samplings.end());
        std::vector<std::shared_ptr<const sbsim::MissTrace>> held_miss(
            rec.size());
        std::vector<std::shared_ptr<const sbsim::MaterializedTrace>>
            held_trace(smp.size());
        std::vector<std::shared_ptr<const sbsim::SamplingPlan>> held_plan(
            smp.size());
        {
            Tracer::Scope s(tr, "sweep.prime");
            Clock::time_point t0 = Clock::now();
            sbsim::parallelFor(rec.size(), runner.jobs(),
                               [&](std::size_t k) {
                const sbsim::SweepJob &job = jobs[rec[k].second];
                held_miss[k] = cache.getOrRecord(rec[k].first, [&job] {
                    std::unique_ptr<sbsim::TraceSource> src =
                        job.makeSource();
                    return sbsim::recordMissTrace(*src, job.config);
                });
            });
            sbsim::parallelFor(smp.size(), runner.jobs(),
                               [&](std::size_t k) {
                const sbsim::SweepJob &job = jobs[smp[k].second];
                held_trace[k] = cache.getOrMaterializeTrace(
                    smp[k].first, job.materialize);
                const sbsim::PhaseProfileConfig pc;
                held_plan[k] = cache.getOrBuildPlan(
                    smp[k].first + '\x1f' + pc.key(), [&] {
                        return sbsim::buildSamplingPlan(*held_trace[k],
                                                        pc);
                    });
            });
            c.primeSeconds += secondsSince(t0);
        }
        std::vector<sbsim::SweepResult> results;
        {
            Tracer::Scope s(tr, "sweep.run_primed");
            Clock::time_point t0 = Clock::now();
            results = runner.run(jobs);
            c.primedRunSeconds += secondsSince(t0);
        }
        primed_digest = digest_of(results);
    }

    const sbsim::TraceCacheStats before = cache.stats();
    std::vector<sbsim::SweepResult> results;
    {
        Tracer::Scope s(tr, "sweep.run");
        std::atomic<bool> done{false};
        double resident_max = 0;
        std::thread sampler([&] {
            while (!done.load()) {
                resident_max = std::max(
                    resident_max,
                    static_cast<double>(cache.stats().residentBytes));
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        });
        Clock::time_point t0 = Clock::now();
        results = runner.run(jobs);
        c.runSeconds += secondsSince(t0);
        done = true;
        sampler.join();
        c.residentMbMax = resident_max / (1024.0 * 1024.0);
    }
    noteCacheDelta(c, before, cache.stats());
    for (const sbsim::SweepResult &r : results)
        c.jobSecondsSum += r.wallSeconds;
    c.attempted += 2 * jobs.size();
    if (digest_of(results) != primed_digest) {
        std::fprintf(stderr, "perfbench: primed and cold grids differ\n");
        c.failed += jobs.size();
    }
}

/** Requests the traced session sends: a seeded draw from the mix on
 *  serve-mix, one exact run per input elsewhere. */
std::vector<ServeRequest>
tracedRequests(const Options &opts)
{
    std::vector<ServeRequest> reqs;
    if (opts.workload == Workload::SERVE_MIX) {
        const std::vector<ServeRequest> universe = serveUniverse();
        for (std::size_t i :
             requestSequence(universe, opts.seed, kTracedServeRequests))
            reqs.push_back(universe[i]);
        return reqs;
    }
    for (const sbsim::service::RunSpec &spec : workloadInputs(opts.workload))
        reqs.push_back(ServeRequest{false, spec, {}});
    return reqs;
}

/** serve-mix only: the traced requests from hostThreads() clients at
 *  once, as the workload sends them, then the daemon's cache ratios
 *  (requests only share cached traces when they overlap). */
bool
traceBurst(Tracer &tr, Counts &c, const std::string &socket,
           const std::vector<ServeRequest> &reqs)
{
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> rejected{0};
    {
        Tracer::Scope s(tr, "service.burst");
        const unsigned clients = hostThreads();
        std::vector<std::thread> threads;
        for (unsigned k = 0; k < clients; ++k) {
            threads.emplace_back([&, k] {
                Connection conn;
                if (!conn.open(socket)) {
                    ++failed;
                    return;
                }
                std::string response;
                for (std::size_t j = k; j < reqs.size(); j += clients) {
                    if (!conn.roundTrip(reqs[j].line(j + 1), response) ||
                        response.find("\"ok\":true") == std::string::npos) {
                        ++failed;
                        if (response.find("queue full") != std::string::npos)
                            ++rejected;
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    c.attempted += reqs.size();
    c.failed += failed.load();
    c.rejected += static_cast<double>(rejected.load());

    Connection conn;
    std::string stats_line;
    {
        Tracer::Scope s(tr, "service.request");
        if (!conn.open(socket) ||
            !conn.roundTrip("{\"id\":0,\"op\":\"stats\"}\n", stats_line)) {
            c.failed += 1;
            return false;
        }
    }
    sbsim::service::JsonParseResult st =
        sbsim::service::parseJson(stats_line);
    const sbsim::service::JsonValue *tc =
        st.ok() ? st.value.find("trace_cache") : nullptr;
    if (!tc) {
        c.failed += 1;
        return false;
    }
    c.refHits = static_cast<double>(jsonUint(*tc, "ref_trace_hits"));
    c.refBuilds =
        static_cast<double>(jsonUint(*tc, "ref_traces_materialized"));
    c.missHits = static_cast<double>(jsonUint(*tc, "miss_trace_hits"));
    c.missBuilds = static_cast<double>(jsonUint(*tc, "miss_traces_recorded"));
    return true;
}

/** A fresh daemon: on serve-mix a concurrent burst first, then one
 *  serial client session in which each request is followed by the
 *  same work in process (cache on, like the daemon). */
void
traceService(Tracer &tr, Counts &c, const Options &opts)
{
    Tracer::Scope session(tr, "service.session");
    const std::string socket = opts.outDir + "/traced-" +
                               std::to_string(::getpid()) + ".sock";
    Daemon daemon(opts.serveBin, socket);
    {
        Tracer::Scope s(tr, "service.spawn");
        if (daemon.start() < 0) {
            std::fprintf(stderr, "perfbench: daemon did not start\n");
            c.failed += 1;
            return;
        }
    }
    const std::vector<ServeRequest> reqs = tracedRequests(opts);
    if (opts.workload == Workload::SERVE_MIX &&
        !traceBurst(tr, c, socket, reqs))
        return;
    Connection conn;
    if (!conn.open(socket)) {
        c.failed += 1;
        return;
    }
    const sbsim::SweepRunner runner = benchRunner();
    std::set<std::string> inputs_seen;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        const ServeRequest &req = reqs[k];
        std::string response;
        double latency = 0;
        {
            Tracer::Scope s(tr, "service.request", k + 1);
            Clock::time_point t0 = Clock::now();
            if (!conn.roundTrip(req.line(k + 1), response)) {
                c.failed += 1;
                return;
            }
            latency = secondsSince(t0);
        }
        ++c.attempted;
        c.requests += 1;
        if (!inputs_seen.insert(sbsim::service::specSourceKey(req.spec))
                 .second)
            c.reusedInputs += 1;
        double inproc = 0;
        std::string doc;
        {
            Tracer::Scope s(tr, "sim.execute_run", k + 1);
            Clock::time_point t0 = Clock::now();
            if (req.sweep) {
                std::ostringstream out;
                sbsim::writeSweepJson(
                    runner.run(sbsim::service::buildSweepJobs(req.spec,
                                                              req.values)),
                    out);
                doc = stripSweepTimings(out.str());
            } else {
                doc = outputDocument(
                    sbsim::service::executeRun(req.spec, nullptr, true)
                        .output);
            }
            inproc = secondsSince(t0);
        }
        c.overheadMs.push_back((latency - inproc) * 1e3);
        sbsim::service::JsonParseResult parsed =
            sbsim::service::parseJson(response);
        const sbsim::service::JsonValue *ok =
            parsed.ok() ? parsed.value.find("ok") : nullptr;
        const sbsim::service::JsonValue *result =
            parsed.ok() ? parsed.value.find("result") : nullptr;
        if (!ok || !ok->boolValue() || !result) {
            const sbsim::service::JsonValue *err =
                parsed.ok() ? parsed.value.find("error") : nullptr;
            std::string why = err ? err->stringValue() : "malformed";
            if (why.find("queue full") != std::string::npos ||
                why.find("draining") != std::string::npos)
                c.rejected += 1;
            c.failed += 1;
            continue;
        }
        const std::string got = req.sweep
                                    ? stripSweepTimings(result->stringValue())
                                    : result->stringValue();
        if (got != doc) {
            std::fprintf(stderr, "perfbench: daemon document differs "
                                 "from in-process executeRun\n");
            c.failed += 1;
        }
    }
    {
        Tracer::Scope s(tr, "service.shutdown");
        if (!daemon.stop())
            c.failed += 1;
    }
}

/** All layer calls under one root span; returns their wall time on a
 *  clock read outside that span. */
double
layerSequence(Tracer &tr, Counts &c, const Options &opts)
{
    sbsim::TraceCache::instance().clear();
    Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope root(tr, "traced_total");
        traceInputs(tr, c, opts);
        traceGrid(tr, c, opts);
        traceService(tr, c, opts);
    }
    return secondsSince(t0);
}

} // namespace

Report
runTraced(const Options &opts)
{
    Report rep;
    // The same calls untraced, before (a warm-up: the process's first
    // pass pays one-time costs) and after the traced pass; the second
    // is the base of the tracing overhead.
    std::uint64_t untraced_attempted = 0, untraced_failed = 0;
    auto untraced = [&] {
        Counts counts;
        Tracer off(false);
        const double seconds = layerSequence(off, counts, opts);
        untraced_attempted += counts.attempted;
        untraced_failed += counts.failed;
        return seconds;
    };
    const double warmup_total = untraced();
    Counts c;
    Tracer tr(true);
    const double clock_total = layerSequence(tr, c, opts);
    const std::vector<Span> &spans = tr.spans();
    const double untraced_total = untraced();

    // Self time per span name; the grouping spans' self time is the
    // remainder.
    std::vector<double> child_cover(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            child_cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    std::map<std::string, std::size_t> count;
    double remainder = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double st = spans[i].end - spans[i].start - child_cover[i];
        ++count[spans[i].name];
        if (kGroupingSpans.count(spans[i].name))
            remainder += st;
        else
            self[spans[i].name] += st;
    }
    const double total = spans.front().end - spans.front().start;
    double layer_sum = 0;
    for (const auto &e : self)
        layer_sum += e.second;

    rep.attempted = c.attempted + untraced_attempted + 1;
    rep.failed = c.failed + untraced_failed;
    // The layer sum and the remainder bound are checks of the
    // benchmark itself: a failure marks the run incorrect.
    if (std::abs(layer_sum + remainder - clock_total) >
        kClockTolerance * clock_total) {
        std::fprintf(stderr,
                     "perfbench: layer self times + remainder %.4f s "
                     "differ from the measured total %.4f s\n",
                     layer_sum + remainder, clock_total);
        rep.failed += 1;
    }
    if (remainder > kRemainderBound * total) {
        std::fprintf(stderr,
                     "perfbench: traced remainder %.4f s is over %.0f%% "
                     "of the total %.4f s\n",
                     remainder, kRemainderBound * 100, total);
        rep.failed += 1;
    }
    for (const std::string &layer : kLayerSpans) {
        if (!count.count(layer)) {
            std::fprintf(stderr, "perfbench: no span for layer %s\n",
                         layer.c_str());
            rep.failed += 1;
        }
    }

    auto ns_per = [&](const char *span, double units) {
        return ratio(self[span] * 1e9, units);
    };
    rep.metrics = {
        {"workloads.gen_ns_per_ref", "ns/ref",
         ns_per("workloads.gen", c.genRefs)},
        {"trace.materialize_ns_per_ref", "ns/ref",
         ns_per("trace.materialize", c.materializeRefs)},
        {"trace.phase_profile_ns_per_ref", "ns/ref",
         ns_per("trace.phase_profile", c.profileRefs)},
        {"trace.reuse_profile_ns_per_miss", "ns/miss",
         ns_per("trace.reuse_profile", c.profiledMisses)},
        {"trace.cache_ref_hit_ratio", "ratio",
         ratio(c.refHits, c.refHits + c.refBuilds)},
        {"trace.cache_miss_hit_ratio", "ratio",
         ratio(c.missHits, c.missHits + c.missBuilds)},
        {"trace.cache_resident_mb", "MB", c.residentMbMax},
        {"sim.frontend_ns_per_ref", "ns/ref",
         ns_per("sim.frontend", c.frontendRefs)},
        {"sim.l1_misses_per_kref", "count",
         ratio(c.l1Misses * 1e3, c.frontendRefs)},
        {"stream.replay_ns_per_miss", "ns/miss",
         ns_per("stream.replay", c.replayMisses)},
        {"cache.l2_replay_ns_per_miss", "ns/miss",
         ns_per("cache.l2_replay", c.l2Misses)},
        {"sim.analytic_us_per_config", "us/config",
         ratio(self["sim.analytic"] * 1e6, c.analyticConfigs)},
        {"sim.sampled_ns_per_simulated_ref", "ns/ref",
         ns_per("sim.sampled", c.sampledSimRefs)},
        {"sim.sampled_ref_fraction", "ratio",
         ratio(c.sampledSimRefs, c.sampledTotalRefs)},
        {"sim.run_ns_per_ref", "ns/ref", ns_per("sim.run", c.runRefs)},
        {"sweep.prepass_share", "ratio",
         ratio(c.primeSeconds, c.primeSeconds + c.primedRunSeconds)},
        {"sweep.parallel_efficiency", "ratio",
         ratio(c.jobSecondsSum, c.runSeconds * c.workers)},
        {"sweep.reported_wall_ratio", "ratio",
         ratio(c.jobSecondsSum, c.runSeconds)},
        {"service.overhead_ms", "ms", median(c.overheadMs)},
        {"service.rejected", "count", c.rejected},
        {"service.input_reuse_share", "ratio",
         ratio(c.reusedInputs, c.requests)},
        {"harness.remainder_share", "ratio", ratio(remainder, total)},
        {"harness.tracing_overhead_share", "ratio",
         ratio(clock_total - untraced_total, untraced_total)},
    };

    const std::string path = opts.outDir + "/spans-" +
                             workloadName(opts.workload) + "-seed" +
                             std::to_string(opts.seed) + ".jsonl";
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_s\":" << jsonNum(s.start)
            << ",\"end_s\":" << jsonNum(s.end) << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}\n";
    }
    rep.extra = "\"spans\":" + std::to_string(spans.size()) +
                ",\"traced_total_s\":" + jsonNum(total) +
                ",\"clock_total_s\":" + jsonNum(clock_total) +
                ",\"untraced_total_s\":" + jsonNum(untraced_total) +
                ",\"warmup_total_s\":" + jsonNum(warmup_total) +
                ",\"remainder_s\":" + jsonNum(remainder);
    return rep;
}

} // namespace perfbench
