/**
 * @file
 * A single stream buffer (Jouppi [10], Figure 2 of the paper): a FIFO
 * of prefetched cache-block tags with an adder that generates the next
 * prefetch address. The original design uses an incrementer (unit
 * stride); per Section 7 the incrementer is generalized to an adder
 * and a stride field so the buffer can follow constant non-unit
 * strides.
 *
 * This is a trace-driven model: block *data* is not stored, only the
 * tags and valid bits, plus the tick each prefetch was issued so the
 * optional timing model can tell whether the data would have returned
 * from memory by the time it is requested (the Section 8 caveat).
 */

#ifndef STREAMSIM_STREAM_STREAM_BUFFER_HH
#define STREAMSIM_STREAM_STREAM_BUFFER_HH

#include <cstdint>
#include <vector>

#include "mem/block.hh"
#include "mem/types.hh"

namespace sbsim {

/** Result of consuming the head entry of a stream. */
struct StreamConsume
{
    BlockAddr block = 0;     ///< Block supplied to the primary cache.
    std::uint64_t issueTick = 0; ///< When its prefetch was issued.
    bool refillIssued = false;   ///< A new tail prefetch was generated.
    BlockAddr refillBlock = 0;   ///< Block address of that prefetch.
};

/** Result of flushing a stream on reallocation. */
struct StreamFlush
{
    std::uint32_t uselessPrefetches = 0; ///< Unconsumed entries discarded.
    std::uint32_t hitRun = 0;            ///< Consecutive hits this stream
                                         ///< serviced since allocation.
    bool wasActive = false;
};

/**
 * One FIFO prefetch buffer. Entries always describe distinct cache
 * blocks; when the stride is smaller than a block the prefetch address
 * advances until it leaves the previously prefetched block.
 */
class StreamBuffer
{
  public:
    /**
     * Marks an empty FIFO slot, and is what headBlock() reports for a
     * stream with no valid head. A block base address of a block of
     * two or more bytes has its low bit clear, so it is never a block.
     */
    static constexpr BlockAddr kNoBlock = ~BlockAddr{0};

    /**
     * @param depth Number of FIFO entries (the paper fixes 2).
     * @param block_size Cache block size in bytes (at least 2).
     */
    StreamBuffer(std::uint32_t depth, std::uint32_t block_size);

    bool active() const { return active_; }
    std::int64_t stride() const { return stride_; }
    std::uint32_t depth() const { return depth_; }

    /** Consecutive hits serviced since the current allocation. */
    std::uint32_t hitRun() const { return hitRun_; }

    /**
     * Discard current contents and lock onto a new stream.
     *
     * @param miss_addr The primary-cache miss address that triggered
     *        allocation; prefetching starts at miss_addr + stride.
     * @param stride_bytes Prefetch stride in bytes (the block size for
     *        unit-stride streams); may be negative.
     * @param now Current tick for prefetch timestamps.
     * @param issued_out Filled with the block addresses prefetched.
     * @return Accounting for the discarded contents.
     */
    StreamFlush allocate(Addr miss_addr, std::int64_t stride_bytes,
                         std::uint64_t now,
                         std::vector<BlockAddr> &issued_out);

    /** True when the valid head entry holds the block containing @p a. */
    bool probeHead(Addr a) const { return probeHeadBlock(mapper_.blockBase(a)); }

    /** As probeHead() for a pre-computed block base address. */
    bool probeHeadBlock(BlockAddr block) const { return headBlock() == block; }

    /**
     * The block of the valid head entry, or kNoBlock when the stream
     * is inactive, empty or its head was invalidated. StreamSet
     * mirrors this value per stream so a lookup scans one array.
     */
    BlockAddr
    headBlock() const
    {
        // An inactive stream is empty, and an empty slot holds
        // kNoBlock (see auditState()).
        return count_ == 0 ? kNoBlock : entries_[head_].block;
    }

    /**
     * Position (0 = head) of the valid entry holding the block of
     * @p a, or -1. Models Jouppi's quasi-sequential buffers, which
     * compare against every entry instead of just the head.
     */
    int probeAny(Addr a) const { return probeAnyBlock(mapper_.blockBase(a)); }

    /** As probeAny() for a pre-computed block base address. */
    int probeAnyBlock(BlockAddr block) const;

    /**
     * Pop the head (a stream hit) and prefetch one replacement block
     * at the tail. @pre probeHead(a) was true for the same address.
     */
    StreamConsume consumeHead(std::uint64_t now);

    /**
     * Consume the entry at @p position (from probeAny), discarding the
     * entries ahead of it — they were prefetched but bypassed.
     * Refills the FIFO to full depth: the first refill is the
     * result's refillBlock, the rest (one per bypassed entry) are
     * appended to @p extra_refills_out in issue order.
     * @param skipped_out Incremented by the number of valid entries
     *        discarded ahead of the hit (wasted prefetches).
     */
    StreamConsume consumeAt(int position, std::uint64_t now,
                            std::uint32_t &skipped_out,
                            std::vector<BlockAddr> &extra_refills_out);

    /**
     * Invalidate any entry holding @p block (a write-back passed by on
     * its way to memory). Invalidated entries were wasted bandwidth.
     * @return number of entries invalidated.
     */
    std::uint32_t invalidate(BlockAddr block);

    /** Tear down without reallocating (end of simulation). */
    StreamFlush drain();

  private:
    /** A FIFO slot; invalid (never prefetched, consumed or
     *  invalidated) when block == kNoBlock. */
    struct Entry
    {
        BlockAddr block = kNoBlock;
        std::uint64_t issueTick = 0;
    };

    /** Issue one prefetch at the tail; returns the block prefetched. */
    BlockAddr issuePrefetch(std::uint64_t now);

    /**
     * Structural invariant walk (checked builds only; see
     * util/audit.hh): head/count within range, inactive implies empty,
     * entries outside the [head, head+count) window invalid, and valid
     * window entries pairwise-distinct cache blocks.
     */
    void auditState() const;

    /** Reduce an index in [0, 2*depth_) into the circular buffer
     *  without the modulo (depth is tiny but not a power of two in
     *  general, so % would be a hardware divide on the hit path). */
    std::uint32_t
    wrap(std::uint32_t i) const
    {
        return i >= depth_ ? i - depth_ : i;
    }

    BlockMapper mapper_;
    std::uint32_t depth_;
    std::vector<Entry> entries_; ///< Circular buffer.
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;

    bool active_ = false;
    std::int64_t stride_ = 0;
    Addr nextAddr_ = 0;       ///< Next prefetch (byte) address.
    BlockAddr lastBlock_ = 0; ///< Last block queued, for dedup.
    std::uint32_t hitRun_ = 0;
};

} // namespace sbsim

#endif // STREAMSIM_STREAM_STREAM_BUFFER_HH
