/**
 * @file
 * An independent reference model of the stream engine, written
 * straight from the paper's figures with none of PrefetchEngine's
 * shortcuts (no head mirror, no sentinel slots, no branch-free scans,
 * no reused buffers), and a fuzz battery that drives both with the
 * same random primary-miss and write-back sequences:
 *
 *  - Fig. 2: a bank of FIFO stream buffers; a miss that matches a
 *    valid head is a stream hit, the head moves to the L1 and the
 *    stream prefetches one more block at its tail; a stream miss
 *    (re)allocates a stream, which prefetches `depth` blocks;
 *  - Fig. 4: the unit-stride filter allocates only when a miss hits a
 *    remembered "previous miss + 1" block;
 *  - Figs. 6 and 7: czone partitions run a three-miss FSM per
 *    partition and allocate a stream with the verified stride (and
 *    Section 7's minimum-delta alternative).
 *
 * Every call's outcome and issued blocks must match, and so must the
 * final statistics and stream-length distribution.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "stream/prefetch_engine.hh"
#include "util/random.hh"

using namespace sbsim;

namespace {

/** The naive model. */
class NaiveEngine
{
  public:
    explicit NaiveEngine(const StreamEngineConfig &c) : c_(c)
    {
        if (c.partitioned) {
            std::uint32_t d = (c.numStreams + 1) / 2;
            std::uint32_t i = c.numStreams - d;
            banks_.push_back(Bank(d));
            banks_.push_back(Bank(i == 0 ? 1 : i));
        } else {
            banks_.push_back(Bank(c.numStreams));
        }
        filter_.assign(c.unitFilterEntries, std::nullopt);
        czones_.resize(c.strideFilterEntries);
        history_.assign(c.strideFilterEntries, std::nullopt);
    }

    struct Outcome
    {
        bool hit = false;
        std::uint64_t issueTick = 0;
        bool allocated = false;
        std::vector<BlockAddr> issued;
    };

    Outcome
    onPrimaryMiss(const MemAccess &access, std::uint64_t now)
    {
        Outcome out;
        ++stats.lookups;
        Bank &bank = c_.partitioned && access.isInstruction() ? banks_[1]
                                                              : banks_[0];
        const BlockAddr block = blockOf(access.addr);

        // Fig. 2: compare the miss against every stream head.
        for (std::size_t s = 0; s < bank.streams.size(); ++s) {
            Stream &st = bank.streams[s];
            if (!st.fifo.empty() && st.fifo.front().valid &&
                st.fifo.front().block == block) {
                hit(bank, s, 0, now, out);
                return out;
            }
        }
        if (c_.associativeLookup) {
            for (std::size_t s = 0; s < bank.streams.size(); ++s) {
                Stream &st = bank.streams[s];
                for (std::size_t p = 0; p < st.fifo.size(); ++p) {
                    if (st.fifo[p].valid && st.fifo[p].block == block) {
                        hit(bank, s, p, now, out);
                        return out;
                    }
                }
            }
        }
        ++stats.streamMisses;

        if (c_.allocation == AllocationPolicy::ALWAYS) {
            allocate(bank, access.addr, c_.blockSize, now, out);
        } else if (unitFilter(access.addr / c_.blockSize)) {
            allocate(bank, access.addr, c_.blockSize, now, out);
        } else if (c_.strideDetection == StrideDetection::CZONE) {
            if (auto s = czone(access.addr))
                allocate(bank, access.addr, *s, now, out);
        } else if (c_.strideDetection == StrideDetection::MIN_DELTA) {
            if (auto s = minDelta(access.addr))
                allocate(bank, access.addr, *s, now, out);
        }
        return out;
    }

    void
    onWriteback(BlockAddr block)
    {
        for (Bank &bank : banks_)
            for (Stream &st : bank.streams)
                for (Entry &e : st.fifo)
                    if (e.valid && e.block == block) {
                        e.valid = false;
                        ++stats.uselessInvalidated;
                    }
    }

    void
    finalize()
    {
        for (Bank &bank : banks_)
            for (Stream &st : bank.streams)
                flush(st);
    }

    StreamEngineStats stats;
    /** Stream lengths, weighted by hits, as bucket counts. */
    std::vector<std::uint64_t> lengths = std::vector<std::uint64_t>(5);

  private:
    struct Entry
    {
        BlockAddr block;
        std::uint64_t tick;
        bool valid;
    };

    struct Stream
    {
        bool active = false;
        std::int64_t stride = 0;
        Addr next = 0;
        BlockAddr last = 0;
        std::uint32_t hits = 0;
        std::uint64_t lastUse = 0;
        std::deque<Entry> fifo;
    };

    struct Bank
    {
        explicit Bank(std::uint32_t n) : streams(n) {}
        std::vector<Stream> streams;
        std::uint64_t clock = 0;
        std::uint32_t rotation = 0;
        Pcg32 rng{0x5eedf00d};
    };

    struct Czone
    {
        bool valid = false;
        Addr tag = 0;
        Addr last = 0;
        std::int64_t stride = 0;
        bool verifying = false; ///< META2 (a stride guess is held).
        std::uint64_t used = 0;
    };

    BlockAddr blockOf(Addr a) const { return a / c_.blockSize * c_.blockSize; }

    /** Prefetch the next block not already queued at the tail. */
    void
    prefetch(Stream &st, std::uint64_t now, Outcome &out)
    {
        BlockAddr b = blockOf(st.next);
        while (b == st.last) {
            st.next += static_cast<Addr>(st.stride);
            b = blockOf(st.next);
        }
        st.next += static_cast<Addr>(st.stride);
        st.last = b;
        st.fifo.push_back({b, now, true});
        out.issued.push_back(b);
        ++stats.prefetchesIssued;
    }

    void
    hit(Bank &bank, std::size_t s, std::size_t pos, std::uint64_t now,
        Outcome &out)
    {
        Stream &st = bank.streams[s];
        for (std::size_t i = 0; i < pos; ++i) {
            if (st.fifo.front().valid)
                ++stats.uselessFlushed;
            st.fifo.pop_front();
        }
        out.hit = true;
        out.issueTick = st.fifo.front().tick;
        st.fifo.pop_front();
        ++st.hits;
        ++stats.hits;
        while (st.fifo.size() < c_.depth)
            prefetch(st, now, out);
        st.lastUse = ++bank.clock;
    }

    void
    flush(Stream &st)
    {
        for (const Entry &e : st.fifo)
            stats.uselessFlushed += e.valid ? 1 : 0;
        if (st.active && st.hits > 0) {
            std::size_t bucket = 0;
            for (std::uint64_t bound : {5, 10, 15, 20})
                bucket += st.hits > bound ? 1 : 0;
            lengths[bucket] += st.hits;
        }
        const std::uint64_t last_use = st.lastUse; // Drains keep LRU age.
        st = Stream{};
        st.lastUse = last_use;
    }

    void
    allocate(Bank &bank, Addr start, std::int64_t stride,
             std::uint64_t now, Outcome &out)
    {
        std::size_t v = bank.streams.size();
        // A free stream first, under every replacement policy.
        for (std::size_t s = bank.streams.size(); s-- > 0;)
            if (!bank.streams[s].active)
                v = s;
        if (v == bank.streams.size()) {
            switch (c_.replacement) {
              case StreamReplacement::LRU:
                v = 0;
                for (std::size_t s = 1; s < bank.streams.size(); ++s)
                    if (bank.streams[s].lastUse < bank.streams[v].lastUse)
                        v = s;
                break;
              case StreamReplacement::FIFO:
                v = bank.rotation;
                bank.rotation = (bank.rotation + 1) %
                                static_cast<std::uint32_t>(bank.streams.size());
                break;
              case StreamReplacement::RANDOM:
                v = bank.rng.below(
                    static_cast<std::uint32_t>(bank.streams.size()));
                break;
            }
        }
        Stream &st = bank.streams[v];
        flush(st);
        st.active = true;
        st.stride = stride;
        st.next = start + static_cast<Addr>(stride);
        st.last = blockOf(start);
        for (std::uint32_t i = 0; i < c_.depth; ++i)
            prefetch(st, now, out);
        st.lastUse = ++bank.clock;
        ++stats.allocations;
        out.allocated = true;
    }

    /** Fig. 4: true when the miss verifies a remembered block + 1. */
    bool
    unitFilter(std::uint64_t block)
    {
        for (auto &slot : filter_) {
            if (slot && *slot == block) {
                slot.reset();
                return true;
            }
        }
        filter_[filterNext_] = block + 1;
        filterNext_ = (filterNext_ + 1) % filter_.size();
        return false;
    }

    /** Figs. 6-7: the czone FSM; the stride once verified. */
    std::optional<std::int64_t>
    czone(Addr a)
    {
        const Addr tag = a >> c_.czoneBits;
        Czone *z = nullptr;
        for (Czone &s : czones_)
            if (s.valid && s.tag == tag)
                z = &s;
        if (!z) {
            Czone *v = nullptr;
            for (Czone &s : czones_)
                if (!s.valid) {
                    v = &s;
                    break;
                }
            if (!v) {
                v = &czones_[0];
                for (Czone &s : czones_)
                    if (s.used < v->used)
                        v = &s;
            }
            *v = {true, tag, a, 0, false, ++czoneClock_};
            return std::nullopt;
        }
        z->used = ++czoneClock_;
        const std::int64_t delta = static_cast<std::int64_t>(a - z->last);
        if (delta == 0)
            return std::nullopt;
        if (z->verifying && delta == z->stride) {
            z->valid = false;
            return delta;
        }
        z->verifying = true;
        z->stride = delta;
        z->last = a;
        return std::nullopt;
    }

    /** Section 7's alternative: stride = smallest nonzero delta. */
    std::optional<std::int64_t>
    minDelta(Addr a)
    {
        std::optional<std::int64_t> best;
        for (const auto &h : history_) {
            if (!h)
                continue;
            const std::int64_t d = static_cast<std::int64_t>(a - *h);
            if (d != 0 && (!best || std::llabs(d) < std::llabs(*best)))
                best = d;
        }
        history_[historyNext_] = a;
        historyNext_ = (historyNext_ + 1) % history_.size();
        if (!best || static_cast<std::uint64_t>(std::llabs(*best)) >
                         c_.minDeltaMaxStride)
            return std::nullopt;
        return best;
    }

    StreamEngineConfig c_;
    std::vector<Bank> banks_;
    std::vector<std::optional<std::uint64_t>> filter_;
    std::size_t filterNext_ = 0;
    std::vector<Czone> czones_;
    std::uint64_t czoneClock_ = 0;
    std::vector<std::optional<Addr>> history_;
    std::size_t historyNext_ = 0;
};

/** A random miss stream: interleaved unit-stride runs, strided runs,
 *  scattered misses and write-backs of recently missed blocks, over a
 *  region small enough that streams hit and are invalidated often. */
void
fuzzOne(const StreamEngineConfig &config, std::uint64_t seed)
{
    SCOPED_TRACE("seed " + std::to_string(seed));
    PrefetchEngine engine(config);
    NaiveEngine naive(config);
    Pcg32 rng(seed);

    const std::int64_t kStrides[] = {32, 32, 64, -32, 96, 256, 8, 4096};
    struct Cursor
    {
        Addr addr;
        std::int64_t stride;
    };
    std::vector<Cursor> cursors(4);
    for (Cursor &c : cursors)
        c = {0x100000 + rng.below(1 << 16) * 32ull,
             kStrides[rng.below(8)]};
    std::vector<BlockAddr> recent;
    std::uint64_t now = 0;

    for (int step = 0; step < 4000; ++step) {
        now += 1 + rng.below(40);
        const std::uint32_t kind = rng.below(16);
        if (kind == 0 && !recent.empty()) {
            const BlockAddr b = recent[rng.below(
                static_cast<std::uint32_t>(recent.size()))];
            engine.onWriteback(b);
            naive.onWriteback(b);
            continue;
        }
        Addr a;
        if (kind < 12) {
            Cursor &c = cursors[rng.below(4)];
            c.addr += static_cast<Addr>(c.stride);
            if (rng.below(64) == 0)
                c = {0x100000 + rng.below(1 << 16) * 32ull,
                     kStrides[rng.below(8)]};
            a = c.addr;
        } else {
            a = 0x100000 + rng.below(1 << 20);
        }
        MemAccess access = makeLoad(a);
        const std::uint32_t t = rng.below(4);
        if (t == 0)
            access = makeIfetch(a);
        else if (t == 1)
            access = makeStore(a);

        EngineOutcome got = engine.onPrimaryMiss(access, now);
        NaiveEngine::Outcome want = naive.onPrimaryMiss(access, now);
        ASSERT_EQ(got.streamHit, want.hit) << "step " << step;
        ASSERT_EQ(got.allocated, want.allocated) << "step " << step;
        if (want.hit) {
            ASSERT_EQ(got.issueTick, want.issueTick) << "step " << step;
        }
        ASSERT_EQ(got.prefetchesIssued, want.issued.size())
            << "step " << step;
        ASSERT_EQ(engine.lastIssuedBlocks(), want.issued)
            << "step " << step;
        // Write-backs then hit both consumed and still-queued blocks.
        recent.push_back(a / config.blockSize * config.blockSize);
        if (!want.issued.empty())
            recent.push_back(want.issued[rng.below(
                static_cast<std::uint32_t>(want.issued.size()))]);
        while (recent.size() > 64)
            recent.erase(recent.begin());
    }

    engine.finalize();
    naive.finalize();
    const StreamEngineStats &g = engine.engineStats();
    const StreamEngineStats &w = naive.stats;
    EXPECT_EQ(g.lookups, w.lookups);
    EXPECT_EQ(g.hits, w.hits);
    EXPECT_EQ(g.streamMisses, w.streamMisses);
    EXPECT_EQ(g.allocations, w.allocations);
    EXPECT_EQ(g.prefetchesIssued, w.prefetchesIssued);
    EXPECT_EQ(g.uselessFlushed, w.uselessFlushed);
    EXPECT_EQ(g.uselessInvalidated, w.uselessInvalidated);
    ASSERT_EQ(engine.lengthDistribution().size(), naive.lengths.size());
    for (std::size_t i = 0; i < naive.lengths.size(); ++i)
        EXPECT_EQ(engine.lengthDistribution().count(i), naive.lengths[i])
            << "bucket " << i;
}

} // namespace

TEST(StreamOracle, EngineMatchesNaiveModelOverConfigGrid)
{
    std::uint64_t seed = 1;
    int configs = 0;
    for (int policy = 0; policy < 4; ++policy) {
        for (StreamReplacement repl :
             {StreamReplacement::LRU, StreamReplacement::FIFO,
              StreamReplacement::RANDOM}) {
            for (bool partitioned : {false, true}) {
                for (bool associative : {false, true}) {
                    for (std::uint32_t depth = 1; depth <= 5; ++depth) {
                        StreamEngineConfig c;
                        c.blockSize = 32;
                        c.depth = depth;
                        c.numStreams = 1 + (seed * 7) % 10;
                        c.replacement = repl;
                        c.partitioned = partitioned;
                        c.associativeLookup = associative;
                        c.unitFilterEntries = 4 + seed % 13;
                        c.strideFilterEntries = 2 + seed % 15;
                        c.czoneBits = 10 + seed % 9;
                        c.minDeltaMaxStride = seed % 2 ? 4096 : 1 << 20;
                        if (policy > 0)
                            c.allocation = AllocationPolicy::UNIT_FILTER;
                        if (policy == 2)
                            c.strideDetection = StrideDetection::CZONE;
                        if (policy == 3)
                            c.strideDetection = StrideDetection::MIN_DELTA;
                        fuzzOne(c, seed++);
                        ++configs;
                        if (HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
    EXPECT_EQ(configs, 4 * 3 * 2 * 2 * 5);
}
