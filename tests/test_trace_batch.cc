/**
 * @file
 * Differential tests for TraceSource::nextBatch: for every source
 * type, the batched path must deliver the exact sequence next()
 * delivers — across batch boundaries, for awkward batch sizes, and
 * again after reset(). MemorySystem::run consumes references through
 * nextBatch, so these pins are what keep the batched simulation
 * bit-identical to the serial one. The chunked MaterializedTrace is
 * pinned here too: its readers must deliver the drained sequence
 * across chunk boundaries.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "trace/chunk_store.hh"
#include "trace/file_trace.hh"
#include "trace/materialized_trace.hh"
#include "trace/source.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"
#include "workloads/pattern.hh"

using namespace sbsim;

namespace {

/** Drain @p src one reference at a time via next(). */
std::vector<MemAccess>
drainSerial(TraceSource &src)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (src.next(a))
        out.push_back(a);
    return out;
}

/** Drain @p src through nextBatch with a fixed batch size. */
std::vector<MemAccess>
drainBatched(TraceSource &src, std::size_t batch_size)
{
    std::vector<MemAccess> out;
    std::vector<MemAccess> batch(batch_size);
    std::size_t got;
    while ((got = src.nextBatch(batch.data(), batch_size)) > 0) {
        EXPECT_LE(got, batch_size) << "nextBatch overran the buffer";
        out.insert(out.end(), batch.begin(),
                   batch.begin() + static_cast<std::ptrdiff_t>(got));
    }
    return out;
}

/**
 * The core differential: serial and batched drains of @p src must
 * agree for batch sizes that divide the trace, that don't, and that
 * exceed it; and a reset() must restart the batched sequence from the
 * top.
 */
void
expectBatchedMatchesSerial(TraceSource &src)
{
    src.reset();
    std::vector<MemAccess> serial = drainSerial(src);
    ASSERT_FALSE(serial.empty()) << "fixture produced an empty trace";

    for (std::size_t batch_size : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}, std::size_t{64},
                                   serial.size() + 13}) {
        src.reset();
        std::vector<MemAccess> batched = drainBatched(src, batch_size);
        ASSERT_EQ(batched.size(), serial.size())
            << "batch size " << batch_size;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_TRUE(batched[i] == serial[i])
                << "batch size " << batch_size << ", reference " << i;
        }
        // Exhausted for good: further calls keep returning 0.
        MemAccess extra;
        EXPECT_EQ(src.nextBatch(&extra, 1), 0u);
        EXPECT_FALSE(src.next(extra));
    }

    // Mixed-granularity consumption: alternate next() and nextBatch()
    // against the serial reference sequence.
    src.reset();
    std::vector<MemAccess> mixed;
    MemAccess one;
    std::vector<MemAccess> chunk(5);
    for (;;) {
        if (mixed.size() % 3 == 0) {
            std::size_t got = src.nextBatch(chunk.data(), chunk.size());
            if (got == 0)
                break;
            mixed.insert(mixed.end(), chunk.begin(),
                         chunk.begin() + static_cast<std::ptrdiff_t>(got));
        } else {
            if (!src.next(one))
                break;
            mixed.push_back(one);
        }
    }
    ASSERT_EQ(mixed.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_TRUE(mixed[i] == serial[i]) << "mixed drain, reference " << i;
}

std::vector<MemAccess>
syntheticTrace(std::size_t n)
{
    std::vector<MemAccess> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Addr a = 0x1000 + 40 * static_cast<Addr>(i);
        switch (i % 3) {
          case 0: v.push_back(makeLoad(a)); break;
          case 1: v.push_back(makeStore(a, 4)); break;
          default: v.push_back(makeIfetch(0x40 + 4 * (i % 16))); break;
        }
    }
    return v;
}

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

} // namespace

TEST(TraceBatch, VectorSource)
{
    VectorSource src(syntheticTrace(517));
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, FileTraceReader)
{
    std::string path = tempPath("sbsim_batch.trace");
    {
        TraceWriter writer(path);
        for (const MemAccess &a : syntheticTrace(1291))
            writer.append(a);
    }
    TraceReader src(path);
    expectBatchedMatchesSerial(src);
    std::filesystem::remove(path);
}

TEST(TraceBatch, TimeSampler)
{
    // Windows deliberately misaligned with every batch size used by
    // the differential, so batches straddle on/off boundaries.
    VectorSource base(syntheticTrace(4001));
    TimeSampler src(base, /*on_count=*/37, /*off_count=*/23);
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, TruncatingSource)
{
    VectorSource base(syntheticTrace(700));
    TruncatingSource src(base, /*limit=*/333);
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, SamplerOverTruncationStack)
{
    // The composition the CLI builds: workload -> truncate -> sample.
    const Benchmark &bench = findBenchmark("mgrid");
    auto chain = std::make_unique<OwningSourceChain>();
    TraceSource &workload =
        chain->add(bench.makeWorkload(ScaleLevel::SMALL));
    TraceSource &limited = chain->add(
        std::make_unique<TruncatingSource>(workload, 20000));
    chain->add(std::make_unique<TimeSampler>(limited, 501, 299));
    expectBatchedMatchesSerial(*chain);
}

TEST(TraceBatch, OwningSourceChainEmpty)
{
    OwningSourceChain chain;
    MemAccess a;
    EXPECT_EQ(chain.nextBatch(&a, 1), 0u);
    EXPECT_FALSE(chain.next(a));
}

TEST(TraceBatch, EveryBenchmarkGenerator)
{
    // Every workload generator in the registry, at the small scale,
    // truncated so the whole suite stays fast. The truncation cap is
    // prime so batch boundaries never line up with op boundaries.
    for (const Benchmark &bench : allBenchmarks()) {
        SCOPED_TRACE(bench.name);
        auto workload = bench.makeWorkload(ScaleLevel::SMALL);
        TruncatingSource limited(*workload, 9973);
        expectBatchedMatchesSerial(limited);
    }
}

TEST(TraceBatch, ComposedWorkloadDirect)
{
    // The generator itself (no truncation): the batched drain must
    // also agree on where the workload *ends*.
    WorkloadSpec spec;
    spec.name = "batch-pin";
    spec.timeSteps = 3;
    spec.hotPerAccess = 2;
    spec.hotBytes = 4096;
    spec.ifetchPerAccess = 1;
    spec.loopBodyBytes = 768; // Not a power of two: exercises the
                              // modulo fallback for the pc salt.
    SweepOp sweep;
    sweep.count = 97;
    sweep.segments = 2;
    sweep.segmentStride = 4096;
    sweep.streams = {{0x100000, 32}, {0x200000, 64, AccessType::STORE, 8}};
    spec.ops.push_back(sweep);
    GatherOp gather;
    gather.idxBase = 0x300000;
    gather.count = 151;
    gather.dataBase = 0x400000;
    gather.dataRangeBytes = 1 << 20;
    spec.ops.push_back(gather);

    ComposedWorkload src(spec);
    expectBatchedMatchesSerial(src);
}

TEST(ChunkStore, SpansBytesAndShrink)
{
    ChunkStore<int, 4> store;
    const int *run = nullptr;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.bytes(), 0u);
    EXPECT_EQ(store.span(0, &run), 0u);

    for (int i = 0; i < 10; ++i)
        store.push_back(i);
    EXPECT_EQ(store.size(), 10u);
    EXPECT_EQ(store.bytes(), 12 * sizeof(int)); // Three chunks of 4.
    ASSERT_EQ(store.span(5, &run), 3u);         // To its chunk's end.
    EXPECT_EQ(run[0], 5);
    ASSERT_EQ(store.span(9, &run), 1u);
    EXPECT_EQ(run[0], 9);
    EXPECT_EQ(store.span(10, &run), 0u);

    // shrink() trims the last chunk to its content; appending again
    // regrows it to a whole chunk before starting the next.
    store.shrink();
    EXPECT_EQ(store.bytes(), 10 * sizeof(int));
    for (int i = 10; i < 13; ++i)
        store.push_back(i);
    EXPECT_EQ(store.bytes(), 16 * sizeof(int));

    std::vector<int> got;
    store.forEach([&got](int v) { got.push_back(v); });
    std::vector<int> want(13);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(got, want);
}

TEST(ChunkStore, AppendFromFillsChunksInShortBatches)
{
    // A filler that stores at most 3 per call, so fills straddle the
    // 4-element chunks; ends exactly on a chunk boundary, so shrink()
    // must drop the empty chunk appendFrom left behind.
    ChunkStore<int, 4> store;
    std::size_t next = 0;
    store.appendFrom([&next](int *out, std::size_t max) {
        std::size_t n = std::min<std::size_t>({max, 3, 12 - next});
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<int>(next++);
        return n;
    });
    store.shrink();
    EXPECT_EQ(store.size(), 12u);
    EXPECT_EQ(store.bytes(), 12 * sizeof(int));
    std::vector<int> got;
    store.forEach([&got](int v) { got.push_back(v); });
    std::vector<int> want(12);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(got, want);
}

TEST(ChunkStore, NextStoreReusesTheChunksOfADeadOne)
{
    // An element type of its own, so no other test shares its pool.
    struct Ref
    {
        std::uint64_t value;
    };
    auto chunks_of = [](const ChunkStore<Ref, 8> &store) {
        std::set<const Ref *> starts;
        const Ref *run;
        for (std::size_t pos = 0, n; (n = store.span(pos, &run)) > 0;
             pos += n)
            starts.insert(run);
        return starts;
    };
    std::set<const Ref *> freed;
    {
        ChunkStore<Ref, 8> store;
        for (std::uint64_t i = 0; i < 24; ++i)
            store.push_back({i});
        freed = chunks_of(store);
    }
    ASSERT_EQ(freed.size(), 3u);
    ChunkStore<Ref, 8> next;
    for (std::uint64_t i = 0; i < 24; ++i)
        next.push_back({i + 100});
    EXPECT_EQ(chunks_of(next), freed);
    std::vector<std::uint64_t> got;
    next.forEach([&got](const Ref &r) { got.push_back(r.value); });
    std::vector<std::uint64_t> want(24);
    std::iota(want.begin(), want.end(), 100);
    EXPECT_EQ(got, want);
}

TEST(TraceBatch, SharedTraceViewAcrossChunks)
{
    // Three whole chunks and a partial fourth, drained from a source.
    constexpr std::size_t kChunk = MaterializedTrace::kChunkRefs;
    const std::vector<MemAccess> refs = syntheticTrace(3 * kChunk + 517);
    VectorSource src(refs);
    auto trace = MaterializedTrace::fromSource(src);
    ASSERT_EQ(trace->size(), refs.size());
    // The chunk capacities sum to the references: three whole chunks
    // and a last one trimmed to its content.
    EXPECT_EQ(trace->bytes(),
              sizeof(MaterializedTrace) + refs.size() * sizeof(MemAccess));

    SharedTraceView view(trace);
    expectBatchedMatchesSerial(view);
    view.reset();
    EXPECT_EQ(drainSerial(view), refs);

    // nextSpan hands out one span per chunk; they concatenate to the
    // drained sequence, also when next() has consumed part of one.
    view.reset();
    MemAccess first[5];
    ASSERT_EQ(view.nextBatch(first, 5), 5u);
    std::vector<MemAccess> got(first, first + 5);
    std::vector<std::size_t> lengths;
    const MemAccess *span = nullptr;
    for (std::size_t len; (len = view.nextSpan(&span)) > 0;) {
        lengths.push_back(len);
        got.insert(got.end(), span, span + len);
    }
    EXPECT_EQ(lengths, (std::vector<std::size_t>{kChunk - 5, kChunk,
                                                 kChunk, 517}));
    EXPECT_EQ(got, refs);

    // The vector constructor stores the same sequence.
    SharedTraceView copied(std::make_shared<const MaterializedTrace>(refs));
    EXPECT_EQ(drainSerial(copied), refs);
}

TEST(TraceBatch, SharedTraceViewEndingOnAChunkBoundary)
{
    constexpr std::size_t kChunk = MaterializedTrace::kChunkRefs;
    const std::vector<MemAccess> refs = syntheticTrace(2 * kChunk);
    VectorSource src(refs);
    auto trace = MaterializedTrace::fromSource(src);
    ASSERT_EQ(trace->size(), refs.size());
    EXPECT_EQ(trace->bytes(),
              sizeof(MaterializedTrace) + refs.size() * sizeof(MemAccess));
    SharedTraceView view(trace);
    std::size_t spans = 0;
    const MemAccess *span = nullptr;
    while (view.nextSpan(&span) > 0)
        ++spans;
    EXPECT_EQ(spans, 2u);
    view.reset();
    EXPECT_EQ(drainBatched(view, 1000), refs);
}

TEST(TraceBatch, EmptySourceMaterializesAnEmptyTrace)
{
    VectorSource src({});
    auto trace = MaterializedTrace::fromSource(src);
    EXPECT_EQ(trace->size(), 0u);
    EXPECT_EQ(trace->bytes(), sizeof(MaterializedTrace));
    SharedTraceView view(trace);
    MemAccess a;
    const MemAccess *span = nullptr;
    EXPECT_FALSE(view.next(a));
    EXPECT_EQ(view.nextBatch(&a, 1), 0u);
    EXPECT_EQ(view.nextSpan(&span), 0u);
}
