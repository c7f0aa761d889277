/**
 * @file
 * A bank of stream buffers searched in parallel (Section 3 of the
 * paper): the primary-cache miss address is compared with the head of
 * every stream; on a hit the block moves to the primary cache, and on
 * allocation the least-recently-used stream is flushed and reset.
 *
 * The bank keeps each stream's head block in one contiguous array (the
 * hardware's row of head comparators), so a lookup compares against
 * that array alone and touches a StreamBuffer only on a hit.
 */

#ifndef STREAMSIM_STREAM_STREAM_SET_HH
#define STREAMSIM_STREAM_STREAM_SET_HH

#include <cstdint>
#include <vector>

#include "stream/stream_buffer.hh"
#include "util/random.hh"

namespace sbsim {

/**
 * How the stream to reallocate on a stream miss is chosen. The paper
 * assumes LRU (Section 3); FIFO (round-robin) and random are provided
 * for the ablation study.
 */
enum class StreamReplacement : std::uint8_t
{
    LRU,
    FIFO,
    RANDOM,
};

/** Short text name for a stream replacement kind. */
inline const char *
toString(StreamReplacement k)
{
    switch (k) {
      case StreamReplacement::LRU: return "lru";
      case StreamReplacement::FIFO: return "fifo";
      case StreamReplacement::RANDOM: return "random";
    }
    return "?";
}

/** Result of a stream-set lookup. */
struct StreamLookup
{
    bool hit = false;
    std::uint32_t stream = 0;        ///< Which stream hit.
    StreamConsume consume;           ///< Head consumption details.
    /** Entries bypassed and discarded ahead of an associative hit. */
    std::uint32_t skipped = 0;
};

/** Result of allocating a stream for a new miss. */
struct StreamAllocation
{
    std::uint32_t stream = 0;        ///< Stream that was reallocated.
    StreamFlush flushed;             ///< What the reallocation discarded.
    std::vector<BlockAddr> issued;   ///< Prefetches sent to memory.
};

/** Multi-way stream buffers with LRU reallocation. */
class StreamSet
{
  public:
    /**
     * @param num_streams Number of parallel streams (paper: up to 10).
     * @param depth Entries per stream (paper: 2).
     * @param block_size Cache block size in bytes.
     * @param replacement Victim choice on reallocation (paper: LRU).
     */
    StreamSet(std::uint32_t num_streams, std::uint32_t depth,
              std::uint32_t block_size,
              StreamReplacement replacement = StreamReplacement::LRU);

    std::uint32_t numStreams() const { return numStreams_; }

    /**
     * Compare @p a against every stream head; consume on a hit. The
     * hitting stream becomes most recently used.
     */
    StreamLookup lookup(Addr a, std::uint64_t now);

    /**
     * As lookup(), but a reference that matches no head may also match
     * a non-head entry (Jouppi's quasi-sequential variant), discarding
     * the entries bypassed ahead of it. The refills beyond the first
     * (consume.refillBlock) are appended to @p extra_refills_out, a
     * buffer the caller reuses across lookups.
     */
    StreamLookup lookupAssociative(Addr a, std::uint64_t now,
                                   std::vector<BlockAddr> &extra_refills_out);

    /**
     * Reallocate the LRU stream to prefetch from @p miss_addr with the
     * given stride. The new stream becomes most recently used.
     */
    StreamAllocation allocate(Addr miss_addr, std::int64_t stride_bytes,
                              std::uint64_t now);

    /**
     * As allocate(), but appends the issued prefetches to
     * @p issued_out so a caller on the per-miss hot path can reuse one
     * buffer instead of receiving a freshly allocated vector.
     * @return the stream that was reallocated.
     */
    std::uint32_t allocate(Addr miss_addr, std::int64_t stride_bytes,
                           std::uint64_t now,
                           std::vector<BlockAddr> &issued_out,
                           StreamFlush &flushed_out);

    /**
     * Invalidate stale copies of @p block in every stream (write-back
     * passing by on its way to memory).
     * @return number of entries invalidated.
     */
    std::uint32_t invalidate(BlockAddr block);

    /** Flush every stream; used at end of simulation. */
    std::vector<StreamFlush> drainAll();

    /** Access to an individual stream (tests, reporting). */
    const StreamBuffer &stream(std::uint32_t i) const { return streams_.at(i); }

  private:
    std::uint32_t victimStream();

    /** Stream @p i was just consumed or reallocated: mirror its new
     *  head and make it most recently used. */
    void touch(std::uint32_t i);

    /**
     * Structural invariant walk (checked builds only; see
     * util/audit.hh): LRU timestamps bounded by the clock and
     * pairwise-distinct when nonzero, rotation pointer in range, the
     * inactive count and head mirror in step with the streams.
     */
    void auditState() const;

    BlockMapper mapper_;
    std::uint32_t numStreams_;
    StreamReplacement replacement_;
    std::vector<StreamBuffer> streams_;
    /** heads_[i] == streams_[i].headBlock(), refreshed on every
     *  change to stream i. */
    std::vector<BlockAddr> heads_;
    std::vector<std::uint64_t> lastUse_;
    /** Streams not yet allocated (or drained); victimStream() takes
     *  the first of them before any policy applies. */
    std::uint32_t inactive_;
    std::uint64_t tick_ = 0;
    std::uint32_t nextVictim_ = 0; ///< FIFO rotation pointer.
    Pcg32 rng_{0x5eedf00d};        ///< RANDOM victim choice.
};

} // namespace sbsim

#endif // STREAMSIM_STREAM_STREAM_SET_HH
