/**
 * @file
 * Unit tests for the phase profiler and representative-interval
 * selector behind --fidelity=sampled: plan invariants (weights
 * reconstruct the trace length, warmup bounds, ordering), the exact
 * fallback on short traces, phase discrimination on a synthetic
 * two-phase stream, and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "trace/materialized_trace.hh"
#include "trace/phase_profile.hh"
#include "trace/source.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

/** `n` loads streaming through distinct blocks (cold fraction ~1). */
void
appendStreamingPhase(std::vector<MemAccess> &v, std::uint64_t n,
                     Addr base)
{
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(makeLoad(base + i * 64));
}

/** `n` loads cycling a tiny working set (cold fraction ~0). */
void
appendLoopPhase(std::vector<MemAccess> &v, std::uint64_t n, Addr base)
{
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(makeLoad(base + (i % 8) * 64));
}

MaterializedTrace
materializeBenchmark(const char *name, std::uint64_t refs)
{
    const Benchmark &b = findBenchmark(name);
    auto workload = b.makeWorkload(ScaleLevel::SMALL);
    TruncatingSource limited(*workload, refs);
    return MaterializedTrace(limited);
}

/** The estimator identity every plan must satisfy: the weighted sum
 *  of interval lengths reconstructs the full trace length. */
void
expectWeightsReconstructLength(const SamplingPlan &plan)
{
    double weighted = 0;
    for (const SampledInterval &s : plan.selected)
        weighted += s.weight * static_cast<double>(s.length);
    EXPECT_NEAR(weighted, static_cast<double>(plan.totalRefs),
                1e-6 * static_cast<double>(plan.totalRefs) + 1e-9);
}

void
expectPlanInvariants(const SamplingPlan &plan)
{
    ASSERT_FALSE(plan.selected.empty());
    EXPECT_LE(plan.selected.size(),
              static_cast<std::size_t>(plan.config.maxClusters));
    EXPECT_LE(plan.selected.size(), plan.intervalsTotal);
    std::uint64_t prevBegin = 0;
    bool first = true;
    for (const SampledInterval &s : plan.selected) {
        EXPECT_LE(s.warmupBegin, s.begin);
        EXPECT_LE(s.begin - s.warmupBegin, plan.config.warmupRefs);
        EXPECT_GT(s.length, 0u);
        EXPECT_LE(s.begin + s.length, plan.totalRefs);
        EXPECT_GE(s.weight, 1.0);
        if (!first) {
            EXPECT_GT(s.begin, prevBegin);
        }
        prevBegin = s.begin;
        first = false;
    }
    expectWeightsReconstructLength(plan);
}

} // namespace

TEST(PhaseProfileConfig, KeyEncodesEveryKnob)
{
    EXPECT_EQ(PhaseProfileConfig{}.key(), "iv5000:wu1250:k5:b32:t0.1");

    PhaseProfileConfig c;
    c.intervalRefs = 10000;
    c.warmupRefs = 1000;
    c.maxClusters = 3;
    c.blockBytes = 64;
    c.leaderThreshold = 0.25;
    EXPECT_EQ(c.key(), "iv10000:wu1000:k3:b64:t0.25");

    // Every knob must reach the key, or the TraceCache would hand a
    // plan built under one config to a run requesting another.
    PhaseProfileConfig d;
    for (PhaseProfileConfig *p : {&d}) {
        std::string base = p->key();
        p->intervalRefs *= 2;
        EXPECT_NE(p->key(), base);
    }
}

TEST(PhaseProfile, ShortTraceDegeneratesToExact)
{
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 4000, 0);
    MaterializedTrace trace(std::move(v));
    SamplingPlan plan = buildSamplingPlan(trace);
    EXPECT_TRUE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 1u);
    ASSERT_EQ(plan.selected.size(), 1u);
    EXPECT_EQ(plan.selected[0].begin, 0u);
    EXPECT_EQ(plan.selected[0].length, 4000u);
    EXPECT_EQ(plan.selected[0].warmupLength(), 0u);
    EXPECT_DOUBLE_EQ(plan.selected[0].weight, 1.0);
    EXPECT_EQ(plan.simulatedRefs(), 4000u);
    EXPECT_EQ(plan.warmupTotal(), 0u);
}

TEST(PhaseProfile, UniformTraceSelectsOneInterval)
{
    // 24 homogeneous intervals collapse to one leader: the plan
    // simulates a single interval whose weight covers all of them.
    std::vector<MemAccess> v;
    appendLoopPhase(v, 120000, 0);
    MaterializedTrace trace(std::move(v));
    SamplingPlan plan = buildSamplingPlan(trace);
    EXPECT_FALSE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 24u);
    ASSERT_EQ(plan.selected.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.selected[0].weight, 24.0);
    expectPlanInvariants(plan);
}

TEST(PhaseProfile, DistinctPhasesGetDistinctRepresentatives)
{
    // Streaming (all cold) then looping (all reuse): the signatures
    // are far apart, so the selector must keep a representative of
    // each phase — and weight each by its own half of the trace.
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 60000, 0);
    appendLoopPhase(v, 60000, 1 << 30);
    MaterializedTrace trace(std::move(v));
    SamplingPlan plan = buildSamplingPlan(trace);
    EXPECT_FALSE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 24u);
    ASSERT_GE(plan.selected.size(), 2u);
    bool firstHalf = false;
    bool secondHalf = false;
    for (const SampledInterval &s : plan.selected) {
        if (s.begin + s.length <= 60000)
            firstHalf = true;
        if (s.begin >= 60000)
            secondHalf = true;
    }
    EXPECT_TRUE(firstHalf);
    EXPECT_TRUE(secondHalf);
    expectPlanInvariants(plan);
}

TEST(PhaseProfile, BenchmarkPlanSatisfiesInvariantsAndSaves)
{
    MaterializedTrace trace = materializeBenchmark("mgrid", 300000);
    SamplingPlan plan = buildSamplingPlan(trace);
    EXPECT_FALSE(plan.exact);
    EXPECT_EQ(plan.intervalsTotal, 60u);
    expectPlanInvariants(plan);
    // The point of the plan: simulate a small fraction of the trace.
    EXPECT_LT(plan.simulatedRefs() + plan.warmupTotal(),
              plan.totalRefs / 4);
}

TEST(PhaseProfile, PlanIsDeterministic)
{
    MaterializedTrace trace = materializeBenchmark("appsp", 200000);
    SamplingPlan a = buildSamplingPlan(trace);
    SamplingPlan b = buildSamplingPlan(trace);
    ASSERT_EQ(a.selected.size(), b.selected.size());
    EXPECT_EQ(a.totalRefs, b.totalRefs);
    EXPECT_EQ(a.intervalsTotal, b.intervalsTotal);
    EXPECT_EQ(a.exact, b.exact);
    for (std::size_t i = 0; i < a.selected.size(); ++i) {
        EXPECT_EQ(a.selected[i].begin, b.selected[i].begin);
        EXPECT_EQ(a.selected[i].length, b.selected[i].length);
        EXPECT_EQ(a.selected[i].warmupBegin, b.selected[i].warmupBegin);
        EXPECT_DOUBLE_EQ(a.selected[i].weight, b.selected[i].weight);
    }
}

TEST(PhaseProfile, WarmupCappedAtTraceStart)
{
    // An interval starting at position 0 cannot reach back for
    // warmup; one deep in the trace gets the full configured prefix.
    std::vector<MemAccess> v;
    appendStreamingPhase(v, 60000, 0);
    appendLoopPhase(v, 60000, 1 << 30);
    MaterializedTrace trace(std::move(v));
    PhaseProfileConfig config;
    config.warmupRefs = 2500;
    SamplingPlan plan = buildSamplingPlan(trace, config);
    for (const SampledInterval &s : plan.selected) {
        if (s.begin == 0)
            EXPECT_EQ(s.warmupLength(), 0u);
        else
            EXPECT_EQ(s.warmupLength(),
                      std::min<std::uint64_t>(s.begin, 2500));
    }
}
