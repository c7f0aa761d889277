#include "sweep_runner.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "trace/materialized_trace.hh"
#include "trace/reuse_profile.hh"
#include "trace/time_sampler.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/mutex.hh"
#include "util/stats.hh"
#include "util/thread_annotations.hh"

namespace sbsim {

namespace {

/**
 * First-exception collector for a worker pool: workers park the first
 * exception they see, the pool owner rethrows it after the join. The
 * lock contract is compiler-checked: first_ is only touched under
 * mutex_, and both methods take the lock themselves (callers must not
 * hold it).
 */
class ErrorCollector
{
  public:
    /** Park std::current_exception() unless one is already parked. */
    void
    capture() SBSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (!first_)
            first_ = std::current_exception();
    }

    /** Rethrow the parked exception, if any. Call after joining. */
    void
    rethrowIfAny() SBSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (first_)
            std::rethrow_exception(first_);
    }

  private:
    Mutex mutex_;
    std::exception_ptr first_ SBSIM_GUARDED_BY(mutex_);
};

/**
 * Serialises heartbeat lines on stderr. The capability guards the
 * *stream*, not data: progress counters are atomics owned by the
 * caller, the mutex only keeps concurrently completing jobs from
 * interleaving their fprintf bytes mid-line.
 */
class HeartbeatPrinter
{
  public:
    void
    printProgress(std::size_t done, std::size_t total,
                  std::uint64_t refs, double rate)
        SBSIM_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        std::fprintf(stderr,
                     "sweep: %zu/%zu jobs, %llu refs, %.0f refs/s\n",
                     done, total,
                     static_cast<unsigned long long>(refs), rate);
    }

  private:
    Mutex mutex_;
};

} // namespace

SweepJob
benchmarkJob(const std::string &benchmark_name, ScaleLevel level,
             const MemorySystemConfig &config, std::string label,
             std::uint64_t ref_limit, bool time_sample)
{
    SweepJob job;
    job.label = label.empty() ? benchmark_name : std::move(label);
    job.config = config;
    // The source key names the exact reference sequence the factory
    // below produces; jobs built from the same arguments share it (and
    // therefore one materialised trace / one recording per front end).
    job.sourceKey = "bench|" + benchmark_name + '|' +
                    std::to_string(static_cast<int>(level)) + '|' +
                    std::to_string(ref_limit) + '|' +
                    (time_sample ? "ts" : "full");
    // Registry entries are static, so the resolved reference outlives
    // every closure; capturing it also moves the name lookup out of
    // the factory (it used to re-run findBenchmark per invocation on a
    // per-closure copy of the string).
    const Benchmark &benchmark = findBenchmark(benchmark_name);
    job.makeSource = [&benchmark, level, ref_limit,
                      time_sample]() -> std::unique_ptr<TraceSource> {
        auto chain = std::make_unique<OwningSourceChain>();
        TraceSource *base = &chain->add(benchmark.makeWorkload(level));
        if (time_sample) {
            base = &chain->add(
                std::make_unique<TimeSampler>(*base, 10000, 90000));
        }
        chain->add(std::make_unique<TruncatingSource>(*base, ref_limit));
        return chain;
    };
    return job;
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    unsigned workers = jobs == 0 ? SweepRunner::defaultJobs() : jobs;
    if (SweepRunner::serialForced())
        workers = 1;
    if (workers > count)
        workers = static_cast<unsigned>(count);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    ErrorCollector errors;

    auto body = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                errors.capture();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(body);
    for (std::thread &t : pool)
        t.join();
    errors.rethrowIfAny();
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs),
      heartbeat_(envBool("SBSIM_PROGRESS").value_or(false)),
      traceCache_(TraceCache::enabledByEnv()),
      cacheReport_(envBool("SBSIM_CACHE_REPORT").value_or(true))
{}

std::string
missTraceKey(const std::string &source_key,
             const MemorySystemConfig &config)
{
    // 0x1f (ASCII unit separator) cannot appear in either component,
    // so distinct (source, front end) pairs never collide.
    return source_key + '\x1f' + frontEndKey(config);
}

std::string
samplingPlanKey(const std::string &source_key,
                const PhaseProfileConfig &config)
{
    return source_key + '\x1f' + config.key();
}

namespace {

/**
 * An artifact a sweep reads: the job whose factory builds it, the
 * jobs it is handed to, and (once its level is built) the artifact.
 */
template <typename T>
struct Need
{
    std::size_t leader;
    std::vector<std::size_t> members;
    std::shared_ptr<const T> value;
};

/**
 * Dedup key of a Need: the artifact's cache key, paired with 0. A
 * keyless job opted out of sharing, so its needs pair an empty key
 * with its own index instead.
 */
using NeedKey = std::pair<std::string, std::size_t>;

/** The Need under @p key (created with leader @p i if new). */
template <typename Map>
auto &
needFor(Map &needs, const typename Map::key_type &key, std::size_t i)
{
    return needs.try_emplace(key, typename Map::mapped_type{i, {}, {}})
        .first->second;
}

/**
 * Apply @p read to @p job's reference stream: the resident cached
 * trace when @p use_cache and one is alive (adopting it counts a
 * hit), else a fresh source from the job's factory.
 */
template <typename Read>
auto
readInput(const SweepJob &job, bool use_cache, const Read &read)
{
    if (use_cache && !job.sourceKey.empty()) {
        if (auto trace =
                TraceCache::instance().adoptRefTrace(job.sourceKey)) {
            SharedTraceView view(std::move(trace));
            return read(static_cast<TraceSource &>(view));
        }
    }
    std::unique_ptr<TraceSource> src = job.makeSource();
    return read(*src);
}

} // namespace

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    // Results live in pre-sized slots indexed by submission order, so
    // completion order never matters.
    std::vector<SweepResult> results(jobs.size());
    TraceCache &cache = TraceCache::instance();

    // --- Plan: one walk derives the artifacts each job reads and
    // dedupes them by key. They are then built in dependency order,
    // one parallelFor per level: miss traces and sampled inputs, then
    // sampling plans and reuse profiles. Required artifacts come from
    // the TraceCache when it is on and the job has a key, else are
    // built once per need, locally. Purely a throughput decision:
    // every plan is pinned bit-identical to a naive run by
    // tests/test_sweep_runner.cc and tests/test_miss_trace.cc.
    struct Plan
    {
        /** Set: served by replay of this post-L1 stream. */
        std::shared_ptr<const MissTrace> miss;
        /** Set: served by runSampled over trace. */
        std::shared_ptr<const SamplingPlan> sampling;
        std::shared_ptr<const MaterializedTrace> trace;
        /** Set: the analytic L2 report is priced from this profile. */
        std::shared_ptr<const ReuseProfiler> profile;
    };
    std::vector<Plan> plans(jobs.size());
    std::map<std::string, std::vector<std::size_t>> families;
    std::map<NeedKey, Need<MissTrace>> misses;
    std::map<NeedKey, Need<MaterializedTrace>> inputs;
    std::map<std::pair<NeedKey, unsigned>, Need<ReuseProfiler>> profiles;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        auto key_of = [&job, i](std::string key) {
            return job.sourceKey.empty() ? NeedKey{std::string(), i}
                                         : NeedKey{std::move(key), 0};
        };
        if (job.fidelity == Fidelity::SAMPLED) {
            SBSIM_ASSERT(!job.eventTrace,
                         "sampled jobs cannot capture event traces");
            needFor(inputs, key_of(job.sourceKey), i).members.push_back(i);
            continue;
        }
        const NeedKey miss_key =
            key_of(missTraceKey(job.sourceKey, job.config));
        // Replay cannot re-emit front-end events, so event-traced jobs
        // always run in full. A pre-recorded miss trace is an explicit
        // caller request, honoured independently of the cache toggle.
        if (job.missTrace && !job.eventTrace)
            plans[i].miss = job.missTrace;
        else if (traceCache_ && !job.sourceKey.empty() && !job.eventTrace)
            families[miss_key.first].push_back(i);
        // The analytic model profiles the job's full miss stream, one
        // profile per (miss stream, L2 block size).
        if (job.l2Model != L2ModelKind::SIMULATED) {
            needFor(profiles, {miss_key, job.config.l2.blockSize}, i)
                .members.push_back(i);
            Need<MissTrace> &miss = needFor(misses, miss_key, i);
            if (!miss.value)
                miss.value = plans[i].miss;
        }
    }
    // Replay is optional, so cache-off stays the naive reference path:
    // a family replays when one recording amortises over >= 2 members
    // or is already resident.
    for (auto &[key, members] : families) {
        if (members.size() >= 2 || cache.lookupMissTrace(key))
            needFor(misses, {key, 0}, members.front()).members = members;
    }

    std::vector<std::function<void()>> level;
    auto build_level = [&] {
        parallelFor(level.size(), jobs_,
                    [&](std::size_t k) { level[k](); });
        level.clear();
    };
    auto shared = [this](const SweepJob &leader) {
        return traceCache_ && !leader.sourceKey.empty();
    };

    for (auto &[key, need] : misses) {
        if (need.value)
            continue;
        level.push_back([&, &key = key, &need = need] {
            const SweepJob &leader = jobs[need.leader];
            auto record = [&] {
                return readInput(leader, traceCache_,
                                 [&leader](TraceSource &src) {
                                     return recordMissTrace(src,
                                                            leader.config);
                                 });
            };
            need.value = shared(leader)
                             ? cache.getOrRecord(key.first, record)
                             : std::make_shared<const MissTrace>(record());
        });
    }
    for (auto &[key, need] : inputs) {
        level.push_back([&, &need = need] {
            const SweepJob &leader = jobs[need.leader];
            // Prefer the materialising producer: it attaches drain-time
            // metadata (TimeSampler counts) the plain factory cannot.
            auto produce = [&leader] {
                return leader.materialize
                           ? leader.materialize()
                           : MaterializedTrace::fromSource(
                                 *leader.makeSource());
            };
            need.value = shared(leader)
                             ? cache.getOrMaterializeTrace(
                                   leader.sourceKey, produce)
                             : produce();
        });
    }
    build_level();

    for (auto &[key, need] : inputs) {
        level.push_back([&, &need = need] {
            const SweepJob &leader = jobs[need.leader];
            const PhaseProfileConfig profile_config;
            auto build = [&] {
                return buildSamplingPlan(*need.value, profile_config);
            };
            std::shared_ptr<const SamplingPlan> plan =
                shared(leader)
                    ? cache.getOrBuildPlan(
                          samplingPlanKey(leader.sourceKey, profile_config),
                          build)
                    : std::make_shared<const SamplingPlan>(build());
            for (std::size_t i : need.members)
                plans[i] = {nullptr, plan, need.value, nullptr};
        });
    }
    for (auto &[key, need] : profiles) {
        level.push_back([&, &key = key, &need = need] {
            // One pass prices every member's L2: the need fixes the
            // block size, and each member's geometry becomes a class.
            std::vector<CacheConfig> l2s;
            for (std::size_t i : need.members)
                l2s.push_back(jobs[i].config.l2);
            auto profile = std::make_shared<ReuseProfiler>(
                makeL2Profiler(key.second, l2s));
            profileMissTraceInto(*profile, *misses.at(key.first).value);
            for (std::size_t i : need.members)
                plans[i].profile = profile;
        });
    }
    for (auto &[key, need] : misses) {
        for (std::size_t i : need.members)
            plans[i].miss = need.value;
    }
    build_level();

    // Heartbeat bookkeeping: integral atomics only (the derived rate
    // is computed at print time), stderr only, so the simulation
    // results cannot observe it.
    std::atomic<std::size_t> jobs_done{0};
    std::atomic<std::uint64_t> refs_done{0};
    double heartbeat_elapsed = 0;
    ScopedTimer heartbeat_timer(heartbeat_elapsed);
    HeartbeatPrinter heartbeat_printer;

    parallelFor(jobs.size(), jobs_, [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        const Plan &plan = plans[i];
        SweepResult &res = results[i];
        res.label = job.label;
        {
            ScopedTimer timer(res.wallSeconds);
            if (plan.sampling) {
                res.output =
                    runSampled(plan.trace, *plan.sampling, job.config);
            } else if (plan.miss) {
                cache.noteReplay();
                res.output = replayOnce(*plan.miss, job.config);
            } else {
                res.output = readInput(
                    job, traceCache_, [&job](TraceSource &src) {
                        return runOnce(src, job.config, job.eventTrace);
                    });
            }
        }
        if (plan.profile)
            reportAnalyticL2(res.output, *plan.profile, job.l2Model,
                             job.config);
        res.references = res.output.results.references;
        res.refsPerSecond = res.wallSeconds > 0
                                ? static_cast<double>(res.references) /
                                      res.wallSeconds
                                : 0.0;
        if (heartbeat_) {
            std::size_t done = jobs_done.fetch_add(1) + 1;
            std::uint64_t refs =
                refs_done.fetch_add(res.references) + res.references;
            double elapsed = heartbeat_timer.elapsedSeconds();
            double rate =
                elapsed > 0 ? static_cast<double>(refs) / elapsed : 0.0;
            heartbeat_printer.printProgress(done, jobs.size(), refs,
                                            rate);
        }
    });
    // The effectiveness report has its own toggle: it used to ride
    // heartbeat_, which silently dropped it from every cache-enabled
    // run that did not also ask for progress output.
    if (cacheReport_ && traceCache_)
        printTraceCacheReport(cache.stats(), stderr);
    return results;
}

unsigned
SweepRunner::defaultJobs()
{
    if (std::optional<std::uint64_t> v =
            envUnsigned("SBSIM_JOBS", 1, 1024)) {
        return static_cast<unsigned>(*v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

bool
SweepRunner::serialForced()
{
    return envBool("SBSIM_SERIAL").value_or(false);
}

void
writeSweepJson(const std::vector<SweepResult> &results, std::ostream &os,
               const TraceCacheStats *cache_stats, double elapsed_seconds)
{
    os << "{\"schema\":\"streamsim-metrics\",\"schema_version\":"
       << kMetricsSchemaVersion << ",\"kind\":\"sweep\",\"jobs\":[";
    std::uint64_t total_refs = 0;
    double total_wall = 0;
    bool first = true;
    for (const SweepResult &r : results) {
        if (!first)
            os << ',';
        first = false;
        total_refs += r.references;
        total_wall = total_wall + r.wallSeconds;
        os << "{\"label\":" << jsonQuote(r.label)
           << ",\"references\":" << r.references
           << ",\"wall_seconds\":" << jsonNumber(r.wallSeconds)
           << ",\"refs_per_second\":" << jsonNumber(r.refsPerSecond)
           << ",\"sections\":";
        runMetrics(r.output).writeJsonSections(os);
        os << '}';
    }
    double rate = total_wall > 0
                      ? static_cast<double>(total_refs) / total_wall
                      : 0.0;
    os << "],\"aggregate\":{\"jobs\":" << results.size()
       << ",\"references\":" << total_refs
       << ",\"wall_seconds\":" << jsonNumber(total_wall)
       << ",\"elapsed_seconds\":" << jsonNumber(elapsed_seconds)
       << ",\"refs_per_second\":" << jsonNumber(rate);
    if (cache_stats) {
        os << ",\"trace_cache\":";
        writeTraceCacheJson(*cache_stats, os);
    }
    os << "}}\n";
}

void
writeSweepCsv(const std::vector<SweepResult> &results, std::ostream &os)
{
    // Header from the first job's registry; every job of a sweep runs
    // the same exporter so the flattened field set is identical.
    os << "label,references,wall_seconds,refs_per_second";
    std::vector<std::string> names;
    if (!results.empty())
        names = runMetrics(results.front().output).flatFieldNames();
    for (const std::string &n : names)
        os << ',' << csvQuote(n);
    os << '\n';

    std::uint64_t total_refs = 0;
    double total_wall = 0;
    for (const SweepResult &r : results) {
        total_refs += r.references;
        total_wall = total_wall + r.wallSeconds;
        os << csvQuote(r.label) << ',' << r.references << ','
           << jsonNumber(r.wallSeconds) << ','
           << jsonNumber(r.refsPerSecond);
        for (const std::string &cell :
             runMetrics(r.output).flatFieldValues()) {
            os << ',' << csvQuote(cell);
        }
        os << '\n';
    }
    double rate = total_wall > 0
                      ? static_cast<double>(total_refs) / total_wall
                      : 0.0;
    os << "aggregate," << total_refs << ',' << jsonNumber(total_wall)
       << ',' << jsonNumber(rate);
    for (std::size_t i = 0; i < names.size(); ++i)
        os << ',';
    os << '\n';
}

} // namespace sbsim
