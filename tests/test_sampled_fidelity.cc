/**
 * @file
 * Differential battery for sampled fidelity (--fidelity=sampled): on
 * every paper benchmark, simulating only the phase plan's
 * representative intervals must land within 1 percentage point of the
 * exact full-trace L1 miss rate while simulating at least 10x fewer
 * references — and an exact-fallback plan (short trace) must
 * reproduce the exact run bit for bit. Also pins the interval cursor
 * (SampledSource) across chunk boundaries of the shared trace, and
 * the cached exact run path of executeRun, which never materializes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "service/run_spec.hh"
#include "sim/experiment.hh"
#include "sim/sampled_run.hh"
#include "sim/sweep_runner.hh"
#include "trace/materialized_trace.hh"
#include "trace/phase_profile.hh"
#include "trace/sampled_source.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_cache.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 1200000;

std::shared_ptr<const MaterializedTrace>
materializeBenchmark(const std::string &name, std::uint64_t refs,
                     ScaleLevel level = ScaleLevel::DEFAULT)
{
    const Benchmark &b = findBenchmark(name);
    auto workload = b.makeWorkload(level);
    TruncatingSource limited(*workload, refs);
    return MaterializedTrace::fromSource(limited);
}

/** Every exported metric of @p out, shortest round-trip numbers:
 *  equal documents mean bit-identical outputs. */
std::string
document(const RunOutput &out)
{
    std::ostringstream os;
    runMetrics(out).writeJsonSections(os);
    return os.str();
}

} // namespace

TEST(SampledFidelity, ParsesFidelityKinds)
{
    EXPECT_EQ(parseFidelity("exact"), Fidelity::EXACT);
    EXPECT_EQ(parseFidelity("sampled"), Fidelity::SAMPLED);
    EXPECT_FALSE(parseFidelity(""));
    EXPECT_FALSE(parseFidelity("Sampled"));
    EXPECT_FALSE(parseFidelity("turbo"));
    EXPECT_STREQ(toString(Fidelity::EXACT), "exact");
    EXPECT_STREQ(toString(Fidelity::SAMPLED), "sampled");
}

TEST(SampledFidelity, ExactFallbackPlanIsBitIdentical)
{
    // A trace shorter than one profiling interval degenerates to an
    // exact plan: one full interval, weight 1, no warmup. Running it
    // through runSampled must reproduce the exact path bit for bit
    // (same counters, same computed doubles).
    auto trace = materializeBenchmark("mgrid", 4000, ScaleLevel::SMALL);
    SamplingPlan plan = buildSamplingPlan(*trace);
    ASSERT_TRUE(plan.exact);

    MemorySystemConfig config = paperSystemConfig(10);
    SharedTraceView view(trace);
    RunOutput exact = runOnce(view, config);
    RunOutput sampled = runSampled(trace, plan, config);

    const SystemResults &e = exact.results;
    const SystemResults &s = sampled.results;
    EXPECT_EQ(s.references, e.references);
    EXPECT_EQ(s.instructionRefs, e.instructionRefs);
    EXPECT_EQ(s.dataRefs, e.dataRefs);
    EXPECT_EQ(s.l1Misses, e.l1Misses);
    EXPECT_EQ(s.l1DataMisses, e.l1DataMisses);
    EXPECT_EQ(s.streamHits, e.streamHits);
    EXPECT_EQ(s.writebacks, e.writebacks);
    EXPECT_EQ(s.cycles, e.cycles);
    EXPECT_EQ(s.streamHitsReady, e.streamHitsReady);
    EXPECT_EQ(s.streamHitsPending, e.streamHitsPending);
    EXPECT_DOUBLE_EQ(s.l1MissRatePercent, e.l1MissRatePercent);
    EXPECT_DOUBLE_EQ(s.l1DataMissRatePercent, e.l1DataMissRatePercent);
    EXPECT_DOUBLE_EQ(s.missesPerInstructionPercent,
                     e.missesPerInstructionPercent);
    EXPECT_DOUBLE_EQ(s.streamHitRatePercent, e.streamHitRatePercent);
    EXPECT_EQ(sampled.sampling.mode, "sampled");
    EXPECT_EQ(sampled.sampling.intervalsSelected, 1u);
    EXPECT_EQ(sampled.sampling.warmupRefs, 0u);
    EXPECT_EQ(sampled.sampling.simulatedRefs, 4000u);
    EXPECT_DOUBLE_EQ(sampled.sampling.missRateStderrPct, 0.0);
}

/**
 * The tentpole acceptance check: for every paper benchmark, the
 * phase-plan estimate tracks exact simulation within 1 point of L1
 * miss rate at >= 10x fewer simulated references.
 */
class SampledDifferential : public ::testing::TestWithParam<const char *>
{};

TEST_P(SampledDifferential, TracksExactWithinOnePointAtTenXSavings)
{
    // Some paper workloads run dry before the cap; sample whatever
    // the generator actually delivers (always >= 40 intervals here).
    auto trace = materializeBenchmark(GetParam(), kRefs);
    const std::uint64_t total = trace->size();
    ASSERT_GE(total, 400000u);

    MemorySystemConfig config = paperSystemConfig(10);
    SharedTraceView view(trace);
    RunOutput exact = runOnce(view, config);

    SamplingPlan plan = buildSamplingPlan(*trace);
    ASSERT_FALSE(plan.exact);
    // The speedup claim: warmup included, the plan simulates at most
    // a tenth of the trace.
    EXPECT_LE(plan.simulatedRefs() + plan.warmupTotal(), total / 10);

    RunOutput sampled = runSampled(trace, plan, config);
    EXPECT_LT(std::abs(sampled.results.l1MissRatePercent -
                       exact.results.l1MissRatePercent),
              1.0)
        << "sampled " << sampled.results.l1MissRatePercent
        << " vs exact " << exact.results.l1MissRatePercent;

    const SamplingReport &sp = sampled.sampling;
    EXPECT_EQ(sp.mode, "sampled");
    EXPECT_EQ(sp.intervalsTotal, plan.intervalsTotal);
    EXPECT_EQ(sp.intervalsSelected, plan.selected.size());
    EXPECT_EQ(sp.intervalRefs, plan.config.intervalRefs);
    EXPECT_EQ(sp.simulatedRefs, plan.simulatedRefs());
    EXPECT_EQ(sp.warmupRefs, plan.warmupTotal());
    // The weighted interval lengths reconstruct the trace length up
    // to per-counter rounding.
    EXPECT_NEAR(static_cast<double>(sp.estimatedRefs),
                static_cast<double>(total), 4.0);
    EXPECT_GE(sp.missRateStderrPct, 0.0);
    EXPECT_TRUE(std::isfinite(sp.missRateStderrPct));
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperBenchmarks, SampledDifferential,
    ::testing::Values("embar", "mgrid", "cgm", "fftpde", "is", "appsp",
                      "appbt", "applu", "spec77", "adm", "bdna",
                      "dyfesm", "mdg", "qcd", "trfd"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// A sampled single run and a sampled sweep over the same RunSpec key
// their sampling plan identically (samplingPlanKey), so with the
// cache on they share one plan. The cache holds weak references, so
// the test pins the plan across both calls; a key mismatch on either
// side would build a second plan.
TEST(SampledFidelity, RunAndSweepShareOneSamplingPlan)
{
    service::RunSpec spec;
    spec.benchmark = "mgrid";
    spec.refs = 200000;
    spec.streams = 4;
    spec.fidelity = Fidelity::SAMPLED;
    const std::vector<std::uint32_t> values = {spec.streams};

    TraceCache &cache = TraceCache::instance();
    cache.clear();
    SweepRunner runner(2);
    runner.setCacheReport(false);
    runner.setTraceCacheEnabled(false);
    const RunOutput want_run =
        service::executeRun(spec, nullptr, /*use_trace_cache=*/false)
            .output;
    const std::vector<SweepResult> want_sweep =
        runner.run(service::buildSweepJobs(spec, values));
    EXPECT_EQ(cache.stats().phasePlansBuilt, 0u);

    const std::string key = service::specSourceKey(spec);
    const PhaseProfileConfig profile_config;
    const std::shared_ptr<const MaterializedTrace> input =
        cache.getOrMaterializeTrace(
            key, [&spec] { return service::materializeSpecInput(spec); });
    const std::shared_ptr<const SamplingPlan> pin = cache.getOrBuildPlan(
        samplingPlanKey(key, profile_config),
        [&] { return buildSamplingPlan(*input, profile_config); });
    const RunOutput got_run =
        service::executeRun(spec, nullptr, /*use_trace_cache=*/true)
            .output;
    runner.setTraceCacheEnabled(true);
    const std::vector<SweepResult> got_sweep =
        runner.run(service::buildSweepJobs(spec, values));

    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.phasePlansBuilt, 1u);
    EXPECT_GE(stats.phasePlanHits, 2u);
    EXPECT_EQ(stats.refTracesMaterialized, 1u);
    EXPECT_EQ(document(got_run), document(want_run));
    ASSERT_EQ(got_sweep.size(), 1u);
    ASSERT_EQ(want_sweep.size(), 1u);
    EXPECT_EQ(document(got_sweep[0].output),
              document(want_sweep[0].output));
    cache.clear();
}

// A sampled interval's warmup and measured ranges may each straddle a
// chunk of the shared trace; the cursor must still deliver exactly
// the drained references, through next() and nextBatch() alike.
TEST(SampledFidelity, SampledSourceStraddlesChunkBoundaries)
{
    constexpr std::uint64_t kChunk = MaterializedTrace::kChunkRefs;
    std::vector<MemAccess> refs;
    {
        auto workload = findBenchmark("mgrid").makeWorkload(
            ScaleLevel::SMALL);
        TruncatingSource limited(*workload, 3 * kChunk + 1000);
        MemAccess a;
        while (limited.next(a))
            refs.push_back(a);
    }
    ASSERT_EQ(refs.size(), 3 * kChunk + 1000);
    VectorSource src(refs);
    const auto trace = MaterializedTrace::fromSource(src);

    // Warmup crosses the first boundary, the measured range the second.
    const SampledInterval interval{kChunk + 50, kChunk + 400,
                                   kChunk - 100, 1.0};
    auto slice = [&refs](std::uint64_t begin, std::uint64_t end) {
        return std::vector<MemAccess>(refs.begin() + begin,
                                      refs.begin() + end);
    };
    const std::vector<MemAccess> warmup =
        slice(interval.warmupBegin, interval.begin);
    const std::vector<MemAccess> measured =
        slice(interval.begin, interval.begin + interval.length);

    auto drain = [](TraceSource &from, std::size_t batch) {
        std::vector<MemAccess> out;
        MemAccess a;
        if (batch == 0) {
            while (from.next(a))
                out.push_back(a);
            return out;
        }
        std::vector<MemAccess> buf(batch);
        for (std::size_t n; (n = from.nextBatch(buf.data(), batch)) > 0;)
            out.insert(out.end(), buf.begin(), buf.begin() + n);
        return out;
    };
    SampledSource cursor(trace, interval);
    for (std::size_t batch : {0, 7, 1000, 200000}) {
        SCOPED_TRACE(batch);
        cursor.reset();
        EXPECT_EQ(drain(cursor, batch), warmup);
        cursor.startMeasurement();
        EXPECT_EQ(drain(cursor, batch), measured);
    }
}

// A cached exact executeRun reads the spec's reference trace when one
// is resident (one refTraceHits) and otherwise regenerates the stream:
// it never materializes one. Either way its document, TimeSampler
// counts included, equals the uncached run's.
TEST(SampledFidelity, CachedExactRunNeverMaterializes)
{
    TraceCache &cache = TraceCache::instance();
    for (bool time_sample : {false, true}) {
        SCOPED_TRACE(time_sample ? "time-sampled" : "plain");
        service::RunSpec spec;
        spec.benchmark = "mgrid";
        spec.refs = 200000;
        spec.streams = 4;
        spec.timeSample = time_sample;
        cache.clear();
        const RunOutput want =
            service::executeRun(spec, nullptr, /*use_trace_cache=*/false)
                .output;
        EXPECT_EQ(want.sampling.timeSamplerSampled > 0, time_sample);

        const RunOutput cold =
            service::executeRun(spec, nullptr, /*use_trace_cache=*/true)
                .output;
        TraceCacheStats stats = cache.stats();
        EXPECT_EQ(stats.refTracesMaterialized, 0u);
        EXPECT_EQ(stats.refTraceHits, 0u);
        EXPECT_EQ(document(cold), document(want));
        EXPECT_EQ(cold.sampling.timeSamplerSampled,
                  want.sampling.timeSamplerSampled);
        EXPECT_EQ(cold.sampling.timeSamplerSkipped,
                  want.sampling.timeSamplerSkipped);

        const std::shared_ptr<const MaterializedTrace> pin =
            cache.getOrMaterializeTrace(
                service::specSourceKey(spec),
                [&spec] { return service::materializeSpecInput(spec); });
        const RunOutput warm =
            service::executeRun(spec, nullptr, /*use_trace_cache=*/true)
                .output;
        stats = cache.stats();
        EXPECT_EQ(stats.refTracesMaterialized, 1u); // The pin only.
        EXPECT_EQ(stats.refTraceHits, 1u);
        EXPECT_EQ(document(warm), document(want));
        EXPECT_EQ(warm.sampling.timeSamplerSampled,
                  want.sampling.timeSamplerSampled);
        EXPECT_EQ(warm.sampling.timeSamplerSkipped,
                  want.sampling.timeSamplerSkipped);
    }
    cache.clear();
}
