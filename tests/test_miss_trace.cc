/**
 * @file
 * Record/replay round-trip tests for the miss-stream memoisation
 * layer: for every (benchmark, secondary configuration) pair sharing
 * an L1 front end, recordMissTrace + replayOnce must be bit-identical
 * to runOnce over the original source — every scalar of
 * SystemResults, the engine stats, the length distribution and the
 * cycle breakdown. This is the invariance argument of
 * docs/INTERNALS.md made executable.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/l2_study.hh"
#include "sim/sweep_runner.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 120000;

/** Long-unit-stride, non-unit-stride and gather-heavy models. */
const std::vector<std::string> kBenchmarks = {"mgrid", "fftpde", "is"};

std::unique_ptr<TraceSource>
makeSource(const std::string &benchmark)
{
    auto chain = std::make_unique<OwningSourceChain>();
    TraceSource &base =
        chain->add(findBenchmark(benchmark).makeWorkload());
    chain->add(std::make_unique<TruncatingSource>(base, kRefs));
    return chain;
}

/** Every scalar of a RunOutput, compared exactly. */
void
expectIdentical(const RunOutput &got, const RunOutput &want,
                const std::string &label)
{
    SCOPED_TRACE(label);
    const SystemResults &g = got.results;
    const SystemResults &w = want.results;
    EXPECT_EQ(g.references, w.references);
    EXPECT_EQ(g.instructionRefs, w.instructionRefs);
    EXPECT_EQ(g.dataRefs, w.dataRefs);
    EXPECT_EQ(g.l1Misses, w.l1Misses);
    EXPECT_EQ(g.l1DataMisses, w.l1DataMisses);
    EXPECT_EQ(g.streamHits, w.streamHits);
    EXPECT_EQ(g.victimHits, w.victimHits);
    EXPECT_EQ(g.writebacks, w.writebacks);
    EXPECT_EQ(g.l1MissRatePercent, w.l1MissRatePercent);
    EXPECT_EQ(g.l1DataMissRatePercent, w.l1DataMissRatePercent);
    EXPECT_EQ(g.missesPerInstructionPercent,
              w.missesPerInstructionPercent);
    EXPECT_EQ(g.streamHitRatePercent, w.streamHitRatePercent);
    EXPECT_EQ(g.extraBandwidthPercent, w.extraBandwidthPercent);
    EXPECT_EQ(g.l2Hits, w.l2Hits);
    EXPECT_EQ(g.l2Misses, w.l2Misses);
    EXPECT_EQ(g.l2LocalHitRatePercent, w.l2LocalHitRatePercent);
    EXPECT_EQ(g.swPrefetches, w.swPrefetches);
    EXPECT_EQ(g.swPrefetchesIssued, w.swPrefetchesIssued);
    EXPECT_EQ(g.swPrefetchesRedundant, w.swPrefetchesRedundant);
    EXPECT_EQ(g.cycles, w.cycles);
    EXPECT_EQ(g.streamHitsReady, w.streamHitsReady);
    EXPECT_EQ(g.streamHitsPending, w.streamHitsPending);
    EXPECT_EQ(g.busQueueCycles, w.busQueueCycles);
    EXPECT_EQ(g.avgAccessCycles, w.avgAccessCycles);
    EXPECT_EQ(g.cycleBreakdown.l1Hit, w.cycleBreakdown.l1Hit);
    EXPECT_EQ(g.cycleBreakdown.victimHit, w.cycleBreakdown.victimHit);
    EXPECT_EQ(g.cycleBreakdown.streamHit, w.cycleBreakdown.streamHit);
    EXPECT_EQ(g.cycleBreakdown.streamStall,
              w.cycleBreakdown.streamStall);
    EXPECT_EQ(g.cycleBreakdown.demandFetch,
              w.cycleBreakdown.demandFetch);
    EXPECT_EQ(g.cycleBreakdown.busQueue, w.cycleBreakdown.busQueue);
    EXPECT_EQ(g.cycleBreakdown.swPrefetchIssue,
              w.cycleBreakdown.swPrefetchIssue);

    const StreamEngineStats &ge = got.engineStats;
    const StreamEngineStats &we = want.engineStats;
    EXPECT_EQ(ge.lookups, we.lookups);
    EXPECT_EQ(ge.hits, we.hits);
    EXPECT_EQ(ge.streamMisses, we.streamMisses);
    EXPECT_EQ(ge.allocations, we.allocations);
    EXPECT_EQ(ge.prefetchesIssued, we.prefetchesIssued);
    EXPECT_EQ(ge.uselessFlushed, we.uselessFlushed);
    EXPECT_EQ(ge.uselessInvalidated, we.uselessInvalidated);

    EXPECT_EQ(got.lengthSharesPercent, want.lengthSharesPercent);
    EXPECT_EQ(got.victimHitRatePercent, want.victimHitRatePercent);
}

/** Secondary variants sharing the paper L1 front end — the sweep
 *  families the memoisation targets, czone included. */
std::vector<std::pair<std::string, MemorySystemConfig>>
secondaryVariants()
{
    std::vector<std::pair<std::string, MemorySystemConfig>> out;
    out.emplace_back("streams4", paperSystemConfig(4));
    out.emplace_back("streams10", paperSystemConfig(10));
    out.emplace_back("filter",
                     paperSystemConfig(10, AllocationPolicy::UNIT_FILTER));
    out.emplace_back(
        "czone", paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                                   StrideDetection::CZONE, 18));

    MemorySystemConfig hybrid = paperSystemConfig(6);
    hybrid.useL2 = true;
    out.emplace_back("hybrid_l2", hybrid);

    MemorySystemConfig conventional = paperSystemConfig(0);
    conventional.useStreams = false;
    conventional.useL2 = true;
    out.emplace_back("conventional_l2", conventional);

    MemorySystemConfig bus = paperSystemConfig(8);
    bus.busCyclesPerBlock = 4;
    out.emplace_back("bus4", bus);
    return out;
}

} // namespace

TEST(MissTrace, ReplayBitIdenticalAcrossSecondaryVariants)
{
    for (const std::string &benchmark : kBenchmarks) {
        // One front end serves every variant: all of them share the
        // paper L1, so one recording feeds seven replays.
        auto rec_src = makeSource(benchmark);
        MissTrace trace =
            recordMissTrace(*rec_src, paperSystemConfig(10));
        EXPECT_FALSE(trace.empty()) << benchmark;
        EXPECT_GT(trace.size(), 0u) << benchmark;
        EXPECT_EQ(trace.summary().references, kRefs) << benchmark;

        for (const auto &[name, config] : secondaryVariants()) {
            ASSERT_EQ(frontEndKey(config),
                      frontEndKey(paperSystemConfig(10)))
                << name;
            auto src = makeSource(benchmark);
            RunOutput want = runOnce(*src, config);
            RunOutput got = replayOnce(trace, config);
            expectIdentical(got, want, benchmark + "/" + name);
        }
    }
}

TEST(MissTrace, ReplayMatchesWithVictimBufferFrontEnd)
{
    // A victim buffer changes the front end (it filters the demand
    // stream), so it needs its own recording; the replay must carry
    // the captured victim hit rate through to the output.
    MemorySystemConfig config = paperSystemConfig(6);
    config.victimBufferEntries = 4;

    auto rec_src = makeSource("fftpde");
    MissTrace trace = recordMissTrace(*rec_src, config);
    EXPECT_NE(frontEndKey(config), frontEndKey(paperSystemConfig(6)));

    auto src = makeSource("fftpde");
    RunOutput want = runOnce(*src, config);
    RunOutput got = replayOnce(trace, config);
    expectIdentical(got, want, "fftpde/victim");
    EXPECT_EQ(got.victimHitRatePercent, want.victimHitRatePercent);
}

TEST(MissTrace, ReplayMatchesWithShuffledTranslation)
{
    MemorySystemConfig config = paperSystemConfig(
        10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);
    config.translation = TranslationMode::SHUFFLED;

    auto rec_src = makeSource("mgrid");
    MissTrace trace = recordMissTrace(*rec_src, config);
    auto src = makeSource("mgrid");
    expectIdentical(replayOnce(trace, config), runOnce(*src, config),
                    "mgrid/shuffled");
}

TEST(MissTrace, ReplayMatchesWithSoftwarePrefetchStream)
{
    // Synthetic trace mixing PREFETCH references with loads/stores:
    // covers the SW_PREFETCH record kind end to end.
    std::vector<MemAccess> refs;
    for (std::uint64_t i = 0; i < 30000; ++i) {
        Addr a = (i * 40) % (1 << 20);
        refs.push_back(makeIfetch(0x100000 + (i % 4096) * 4));
        refs.push_back(makePrefetch(a + 64));
        refs.push_back(i % 3 == 0 ? makeStore(a) : makeLoad(a));
    }
    MemorySystemConfig config = paperSystemConfig(6);
    config.busCyclesPerBlock = 2;

    VectorSource rec_src(refs);
    MissTrace trace = recordMissTrace(rec_src, config);
    EXPECT_GT(trace.summary().swPrefetches, 0u);

    VectorSource src(refs);
    expectIdentical(replayOnce(trace, config), runOnce(src, config),
                    "synthetic/sw_prefetch");
}

TEST(MissTrace, FrontEndKeySeparatesFrontEndsOnly)
{
    MemorySystemConfig base = paperSystemConfig(4);
    // Secondary-level knobs must not split replay families...
    MemorySystemConfig streams = paperSystemConfig(16);
    MemorySystemConfig l2 = base;
    l2.useL2 = true;
    l2.busCyclesPerBlock = 8;
    l2.memLatencyCycles = 100;
    EXPECT_EQ(frontEndKey(base), frontEndKey(streams));
    EXPECT_EQ(frontEndKey(base), frontEndKey(l2));
    // ...while every front-end knob must.
    MemorySystemConfig l1 = base;
    l1.l1.dcache.sizeBytes *= 2;
    MemorySystemConfig victim = base;
    victim.victimBufferEntries = 4;
    MemorySystemConfig xl = base;
    xl.translation = TranslationMode::SHUFFLED;
    MemorySystemConfig hit = base;
    hit.l1HitCycles = 2;
    EXPECT_NE(frontEndKey(base), frontEndKey(l1));
    EXPECT_NE(frontEndKey(base), frontEndKey(victim));
    EXPECT_NE(frontEndKey(base), frontEndKey(xl));
    EXPECT_NE(frontEndKey(base), frontEndKey(hit));
}

TEST(MissTrace, DemandStreamDrivesL2StudyIdentically)
{
    // The Table 4 halves share one front end: the recorded DEMAND
    // stream must drive a SecondaryCacheStudy to exactly the results
    // L2StudyDriver produces over the raw source.
    std::vector<CacheConfig> candidates = table4CandidateConfigs();

    L2StudyDriver driver(SplitCacheConfig::paperDefault(), candidates,
                         /*sample_log2=*/3);
    auto src = makeSource("appsp");
    driver.run(*src);
    std::vector<L2Result> want = driver.study().results();

    auto rec_src = makeSource("appsp");
    MissTrace trace =
        recordMissTrace(*rec_src, paperSystemConfig(10));
    SecondaryCacheStudy study(candidates, /*sample_log2=*/3);
    std::uint64_t fed = replayMissesInto(study, trace);
    EXPECT_EQ(fed, driver.study().missesSeen());

    std::vector<L2Result> got = study.results();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].localHitRatePercent,
                  want[i].localHitRatePercent)
            << i;
        EXPECT_EQ(got[i].sampledAccesses, want[i].sampledAccesses) << i;
    }
}

// ---------------------------------------------------------------------
// The packed record layout: every field a MissRecord carries below the
// L1 must come back from forEach() exactly as appended.

namespace {

struct Appended
{
    MissRecord::Kind kind;
    MemAccess access;
    std::uint64_t dL1Hit;
    std::uint64_t dVictimHit;
    std::uint64_t dSwPrefetch;
};

void
expectRoundTrip(const MissTrace &trace, const std::vector<Appended> &want)
{
    ASSERT_EQ(trace.size(), want.size());
    std::size_t i = 0;
    trace.forEach([&](const MissRecord &rec) {
        ASSERT_LT(i, want.size());
        const Appended &w = want[i];
        EXPECT_EQ(rec.kind, w.kind) << i;
        EXPECT_EQ(rec.access.addr, w.access.addr) << i;
        EXPECT_EQ(rec.access.type, w.access.type) << i;
        EXPECT_EQ(rec.access.size, w.access.size) << i;
        EXPECT_EQ(rec.access.pc, 0u) << i; // Never stored.
        EXPECT_EQ(rec.dL1HitCycles, w.dL1Hit) << i;
        EXPECT_EQ(rec.dVictimHitCycles, w.dVictimHit) << i;
        EXPECT_EQ(rec.dSwPrefetchCycles, w.dSwPrefetch) << i;
        ++i;
    });
    EXPECT_EQ(i, want.size());
}

} // namespace

static_assert(sizeof(MissTrace::Packed) == 16,
              "a recorded post-L1 event is stored in 16 bytes");

TEST(MissTraceLayout, RoundTripsNarrowAndWideRecords)
{
    constexpr std::uint64_t kU32Max = 0xffffffffu;
    const std::vector<Appended> want = {
        {MissRecord::Kind::DEMAND, makeLoad(0x1000, 8, 0x400), 3, 0, 0},
        {MissRecord::Kind::DEMAND, makeStore(0x2000, 4), kU32Max, 0, 0},
        // dL1Hit >= 2^32 escapes to the wide store.
        {MissRecord::Kind::DEMAND, makeIfetch(0x3000), kU32Max + 1, 0, 0},
        {MissRecord::Kind::WRITEBACK, makeLoad(0xffffffffffffffe0ull), 0,
         0, 0},
        // Any victim-hit or software-prefetch delta escapes too.
        {MissRecord::Kind::SW_PREFETCH, makePrefetch(0x5000), 7, 0, 2},
        {MissRecord::Kind::DEMAND, makeLoad(0x6000, 1), 0, 9, 0},
        {MissRecord::Kind::DEMAND, makeLoad(0x7000), 1ull << 40,
         1ull << 33, 1ull << 35},
        {MissRecord::Kind::DEMAND, makeLoad(0x8000), 5, 0, 0},
    };
    MissTrace trace;
    for (const Appended &a : want)
        trace.append(a.kind, a.access, a.dL1Hit, a.dVictimHit,
                     a.dSwPrefetch);
    EXPECT_EQ(trace.wideRecords(), 4u);
    expectRoundTrip(trace, want);
    trace.shrink();
    expectRoundTrip(trace, want);
}

TEST(MissTraceLayout, WideRecordsStraddleChunkBoundaries)
{
    // Wide records on both sides of the record store's first chunk
    // boundary, and enough of them to cross the wide store's own.
    const std::size_t n = MissTrace::kChunkRecords + 64;
    std::vector<Appended> want;
    want.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const bool near_edge = i + 3 >= MissTrace::kChunkRecords &&
                               i < MissTrace::kChunkRecords + 3;
        const bool wide = near_edge || i % 13 == 0;
        want.push_back({i % 3 == 0 ? MissRecord::Kind::WRITEBACK
                                   : MissRecord::Kind::DEMAND,
                        makeLoad(0x10000 + i * 32),
                        wide ? (std::uint64_t{1} << 32) + i : i % 97,
                        wide ? i : 0, 0});
    }
    MissTrace trace;
    for (const Appended &a : want)
        trace.append(a.kind, a.access, a.dL1Hit, a.dVictimHit,
                     a.dSwPrefetch);
    ASSERT_GT(trace.wideRecords(), MissTrace::kWideChunkRecords);
    expectRoundTrip(trace, want);
    trace.shrink();
    expectRoundTrip(trace, want);
}

TEST(MissTraceLayout, BytesCountsBothStores)
{
    MissTrace empty;
    const std::size_t base = empty.bytes();
    EXPECT_EQ(base, sizeof(MissTrace));

    MissTrace narrow;
    narrow.append(MissRecord::Kind::DEMAND, makeLoad(0x40), 1, 0, 0);
    narrow.shrink();
    EXPECT_EQ(narrow.bytes(), base + sizeof(MissTrace::Packed));

    MissTrace wide;
    wide.append(MissRecord::Kind::DEMAND, makeLoad(0x40), 1, 2, 0);
    wide.shrink();
    EXPECT_EQ(wide.bytes(), base + sizeof(MissTrace::Packed) +
                                sizeof(MissTrace::WideDeltas));
}

TEST(MissTraceLayout, VictimAndSoftwarePrefetchRecordingReplaysExactly)
{
    // A victim buffer puts victim-hit cycles between misses and
    // software prefetches put issue cycles there: both force wide
    // records, which must replay bit-identical to the full run.
    std::vector<MemAccess> refs;
    for (std::uint64_t i = 0; i < 40000; ++i) {
        Addr a = (i * 40) % (1 << 19);
        refs.push_back(makeIfetch(0x100000 + (i % 4096) * 4));
        if (i % 2 == 0)
            refs.push_back(makePrefetch(a + 96));
        refs.push_back(i % 3 == 0 ? makeStore(a) : makeLoad(a));
        // Ping-pong between conflicting blocks the victim buffer
        // catches.
        refs.push_back(makeLoad((i % 7) * 8192 + 0x200000));
    }
    for (const MemorySystemConfig &base :
         {paperSystemConfig(6),
          paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                            StrideDetection::CZONE, 18)}) {
        MemorySystemConfig config = base;
        config.victimBufferEntries = 4;
        config.busCyclesPerBlock = 2;

        VectorSource rec_src(refs);
        MissTrace trace = recordMissTrace(rec_src, config);
        EXPECT_GT(trace.summary().victimHits, 0u);
        EXPECT_GT(trace.summary().swPrefetchesIssued, 0u);
        EXPECT_GT(trace.wideRecords(), 0u);
        EXPECT_LT(trace.wideRecords(), trace.size());

        VectorSource src(refs);
        expectIdentical(replayOnce(trace, config), runOnce(src, config),
                        "synthetic/victim+sw_prefetch");
    }
}
