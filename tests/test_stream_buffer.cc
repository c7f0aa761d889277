/** @file Unit tests for a single stream buffer FIFO. */

#include <gtest/gtest.h>

#include <vector>

#include "stream/stream_buffer.hh"

using namespace sbsim;

namespace {

constexpr std::uint32_t kBlock = 32;

std::vector<BlockAddr>
allocate(StreamBuffer &sb, Addr miss, std::int64_t stride,
         std::uint64_t now = 0)
{
    std::vector<BlockAddr> issued;
    sb.allocate(miss, stride, now, issued);
    return issued;
}

} // namespace

TEST(StreamBuffer, AllocateIssuesDepthPrefetches)
{
    StreamBuffer sb(2, kBlock);
    auto issued = allocate(sb, 0x1000, kBlock);
    ASSERT_EQ(issued.size(), 2u);
    EXPECT_EQ(issued[0], 0x1020u); // miss + stride
    EXPECT_EQ(issued[1], 0x1040u);
    EXPECT_TRUE(sb.active());
    EXPECT_EQ(sb.stride(), kBlock);
}

TEST(StreamBuffer, DeeperBuffersIssueMore)
{
    StreamBuffer sb(4, kBlock);
    auto issued = allocate(sb, 0, kBlock);
    ASSERT_EQ(issued.size(), 4u);
    EXPECT_EQ(issued[3], 4u * kBlock);
}

TEST(StreamBuffer, OnlyHeadMatches)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_TRUE(sb.probeHead(0x1020));
    EXPECT_TRUE(sb.probeHead(0x103f)); // Any byte of the head block.
    EXPECT_FALSE(sb.probeHead(0x1040)); // Second entry: not the head.
    EXPECT_FALSE(sb.probeHead(0x1000)); // The original miss target.
}

TEST(StreamBuffer, ConsumeAdvancesAndRefills)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    StreamConsume c = sb.consumeHead(/*now=*/5);
    EXPECT_EQ(c.block, 0x1020u);
    EXPECT_TRUE(c.refillIssued);
    EXPECT_EQ(c.refillBlock, 0x1060u); // FIFO stays full.
    EXPECT_TRUE(sb.probeHead(0x1040)); // New head.
    EXPECT_EQ(sb.hitRun(), 1u);
}

TEST(StreamBuffer, LongRunStaysSequential)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0, kBlock);
    for (std::uint32_t i = 1; i <= 100; ++i) {
        ASSERT_TRUE(sb.probeHead(i * kBlock)) << i;
        sb.consumeHead(i);
    }
    EXPECT_EQ(sb.hitRun(), 100u);
}

TEST(StreamBuffer, NonUnitStrideFollowsStride)
{
    StreamBuffer sb(2, kBlock);
    auto issued = allocate(sb, 0x10000, 1024);
    EXPECT_EQ(issued[0], 0x10400u);
    EXPECT_EQ(issued[1], 0x10800u);
    EXPECT_TRUE(sb.probeHead(0x10400));
    sb.consumeHead(0);
    EXPECT_TRUE(sb.probeHead(0x10800));
}

TEST(StreamBuffer, NegativeStrideWalksBackwards)
{
    StreamBuffer sb(2, kBlock);
    auto issued = allocate(sb, 0x10000, -static_cast<std::int64_t>(kBlock));
    EXPECT_EQ(issued[0], 0x10000u - kBlock);
    EXPECT_EQ(issued[1], 0x10000u - 2 * kBlock);
}

TEST(StreamBuffer, SubBlockStrideDeduplicatesBlocks)
{
    // Stride of 8 bytes: prefetched entries must still be distinct
    // blocks.
    StreamBuffer sb(2, kBlock);
    auto issued = allocate(sb, 0x1000, 8);
    ASSERT_EQ(issued.size(), 2u);
    EXPECT_EQ(issued[0], 0x1020u);
    EXPECT_EQ(issued[1], 0x1040u);
}

TEST(StreamBuffer, ReallocationFlushReportsUseless)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    sb.consumeHead(0); // One hit; FIFO refilled to 2 valid entries.
    std::vector<BlockAddr> issued;
    StreamFlush flushed = sb.allocate(0x90000, kBlock, 1, issued);
    EXPECT_TRUE(flushed.wasActive);
    EXPECT_EQ(flushed.uselessPrefetches, 2u);
    EXPECT_EQ(flushed.hitRun, 1u);
}

TEST(StreamBuffer, InvalidateMarksEntriesUseless)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.invalidate(0x1020), 1u);
    EXPECT_EQ(sb.invalidate(0x1020), 0u); // Already invalid.
    EXPECT_FALSE(sb.probeHead(0x1020));
    // The invalidated head no longer counts as useless at drain.
    StreamFlush drained = sb.drain();
    EXPECT_EQ(drained.uselessPrefetches, 1u); // Only the tail.
}

TEST(StreamBuffer, InvalidateMidEntryBlocksLaterHit)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.invalidate(0x1040), 1u); // Second entry.
    EXPECT_TRUE(sb.probeHead(0x1020));
    sb.consumeHead(0);
    // New head is the invalidated entry: no match.
    EXPECT_FALSE(sb.probeHead(0x1040));
}

TEST(StreamBuffer, DrainDeactivates)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    StreamFlush f = sb.drain();
    EXPECT_TRUE(f.wasActive);
    EXPECT_EQ(f.uselessPrefetches, 2u);
    EXPECT_FALSE(sb.active());
    EXPECT_FALSE(sb.probeHead(0x1020));
    StreamFlush again = sb.drain();
    EXPECT_FALSE(again.wasActive);
}

TEST(StreamBuffer, IssueTickPropagatesToConsume)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock, /*now=*/100);
    StreamConsume c = sb.consumeHead(/*now=*/150);
    EXPECT_EQ(c.issueTick, 100u);
}

TEST(StreamBufferDeath, ZeroStride)
{
    StreamBuffer sb(2, kBlock);
    std::vector<BlockAddr> issued;
    EXPECT_DEATH(sb.allocate(0x1000, 0, 0, issued), "stride");
}

TEST(StreamBufferDeath, ZeroDepth)
{
    EXPECT_DEATH(StreamBuffer(0, kBlock), "depth");
}

/** Property: for any depth, a sequential run never misses after
 *  allocation and the FIFO always refills. */
class StreamDepthProperty : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(StreamDepthProperty, SequentialRunAlwaysHits)
{
    std::uint32_t depth = GetParam();
    StreamBuffer sb(depth, kBlock);
    std::vector<BlockAddr> issued;
    sb.allocate(0, kBlock, 0, issued);
    EXPECT_EQ(issued.size(), depth);
    for (std::uint32_t i = 1; i <= 3 * depth + 5; ++i) {
        ASSERT_TRUE(sb.probeHead(i * kBlock));
        StreamConsume c = sb.consumeHead(i);
        EXPECT_TRUE(c.refillIssued);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, StreamDepthProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

TEST(StreamBuffer, ProbeAnyFindsNonHeadEntries)
{
    StreamBuffer sb(4, kBlock);
    allocate(sb, 0x1000, kBlock);
    EXPECT_EQ(sb.probeAny(0x1020), 0);
    EXPECT_EQ(sb.probeAny(0x1040), 1);
    EXPECT_EQ(sb.probeAny(0x1080), 3);
    EXPECT_EQ(sb.probeAny(0x10a0), -1); // Beyond the FIFO.
    EXPECT_EQ(sb.probeAny(0x1000), -1); // The original miss target.
}

TEST(StreamBuffer, ConsumeAtSkipsAndRefills)
{
    StreamBuffer sb(4, kBlock);
    allocate(sb, 0x1000, kBlock);
    std::uint32_t skipped = 0;
    std::vector<BlockAddr> extra_refills;
    // Entries are [0x1020, 0x1040, 0x1060, 0x1080]; hit position 2.
    StreamConsume c = sb.consumeAt(2, /*now=*/7, skipped, extra_refills);
    EXPECT_EQ(c.block, 0x1060u);
    EXPECT_EQ(skipped, 2u); // 0x1020 and 0x1040 were bypassed.
    // FIFO refilled to full depth: 3 new prefetches in total.
    EXPECT_TRUE(c.refillIssued);
    EXPECT_EQ(extra_refills.size(), 2u);
    // New head continues past the hit.
    EXPECT_TRUE(sb.probeHead(0x1080));
    EXPECT_EQ(sb.hitRun(), 1u);
}

TEST(StreamBuffer, ConsumeAtZeroEqualsConsumeHead)
{
    StreamBuffer sb(2, kBlock);
    allocate(sb, 0x1000, kBlock);
    std::uint32_t skipped = 0;
    std::vector<BlockAddr> extra_refills;
    StreamConsume c = sb.consumeAt(0, 1, skipped, extra_refills);
    EXPECT_EQ(c.block, 0x1020u);
    EXPECT_EQ(skipped, 0u);
    EXPECT_TRUE(extra_refills.empty());
}
