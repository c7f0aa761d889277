#include "stream_set.hh"

#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

StreamSet::StreamSet(std::uint32_t num_streams, std::uint32_t depth,
                     std::uint32_t block_size,
                     StreamReplacement replacement)
    : mapper_(block_size),
      numStreams_(num_streams),
      replacement_(replacement),
      heads_(num_streams, StreamBuffer::kNoBlock),
      lastUse_(num_streams, 0),
      inactive_(num_streams)
{
    SBSIM_ASSERT(num_streams > 0, "need at least one stream");
    streams_.reserve(num_streams);
    for (std::uint32_t i = 0; i < num_streams; ++i)
        streams_.emplace_back(depth, block_size);
}

void
StreamSet::auditState() const
{
    SBSIM_ASSERT(streams_.size() == numStreams_, "stream bank resized");
    SBSIM_ASSERT(nextVictim_ < numStreams_, "FIFO rotation pointer ",
                 nextVictim_, " out of range");
    // lastUse_ is the LRU stack as timestamps: values may not run
    // ahead of the clock and nonzero values must be distinct, or
    // victimStream() would reallocate an arbitrary stream.
    std::uint32_t inactive = 0;
    for (std::uint32_t i = 0; i < numStreams_; ++i) {
        // lookup() compares against the mirror alone.
        SBSIM_ASSERT(heads_[i] == streams_[i].headBlock(), "stream ", i,
                     " head mirror ", heads_[i], " != head ",
                     streams_[i].headBlock());
        inactive += streams_[i].active() ? 0 : 1;
        SBSIM_ASSERT(lastUse_[i] <= tick_, "stream ", i,
                     " timestamp ", lastUse_[i], " ahead of clock ",
                     tick_);
        if (lastUse_[i] == 0)
            continue;
        for (std::uint32_t j = i + 1; j < numStreams_; ++j) {
            SBSIM_ASSERT(lastUse_[j] != lastUse_[i],
                         "duplicate stream timestamps on ", i, "/", j);
        }
    }
    SBSIM_ASSERT(inactive == inactive_, "inactive count ", inactive_,
                 " but ", inactive, " streams inactive");
}

void
StreamSet::touch(std::uint32_t i)
{
    heads_[i] = streams_[i].headBlock();
    lastUse_[i] = ++tick_;
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
}

// analyze:hot-path
StreamLookup
StreamSet::lookup(Addr a, std::uint64_t now)
{
    StreamLookup result;
    // Convert to a block base once; every stream comparator sees the
    // same block address (one adder feeding all comparators, as in
    // the hardware).
    const BlockAddr block = mapper_.blockBase(a);
    // First matching head, without a branch per stream: the scan runs
    // backwards so the lowest matching index is the one kept.
    const BlockAddr *heads = heads_.data();
    std::uint32_t hit = numStreams_;
    for (std::uint32_t i = numStreams_; i-- > 0;)
        hit = heads[i] == block ? i : hit;
    if (hit == numStreams_)
        return result;
    result.hit = true;
    result.stream = hit;
    result.consume = streams_[hit].consumeHead(now);
    touch(hit);
    return result;
}

// analyze:hot-path
StreamLookup
StreamSet::lookupAssociative(Addr a, std::uint64_t now,
                             std::vector<BlockAddr> &extra_refills_out)
{
    StreamLookup result = lookup(a, now);
    if (result.hit)
        return result;
    const BlockAddr block = mapper_.blockBase(a);
    for (std::uint32_t i = 0; i < numStreams_; ++i) {
        int pos = streams_[i].probeAnyBlock(block);
        if (pos >= 0) {
            result.hit = true;
            result.stream = i;
            result.consume = streams_[i].consumeAt(
                pos, now, result.skipped, extra_refills_out);
            touch(i);
            return result;
        }
    }
    return result;
}

std::uint32_t
StreamSet::victimStream()
{
    // Inactive streams are free and picked first under every policy.
    if (inactive_ > 0) {
        for (std::uint32_t i = 0; i < numStreams_; ++i)
            if (!streams_[i].active())
                return i;
    }

    switch (replacement_) {
      case StreamReplacement::FIFO: {
        std::uint32_t v = nextVictim_;
        nextVictim_ = (nextVictim_ + 1) % numStreams_;
        return v;
      }
      case StreamReplacement::RANDOM:
        return rng_.below(numStreams_);
      case StreamReplacement::LRU:
        break;
    }

    std::uint32_t best = 0;
    std::uint64_t best_use = lastUse_[0];
    for (std::uint32_t i = 1; i < numStreams_; ++i) {
        if (lastUse_[i] < best_use) {
            best = i;
            best_use = lastUse_[i];
        }
    }
    return best;
}

StreamAllocation
StreamSet::allocate(Addr miss_addr, std::int64_t stride_bytes,
                    std::uint64_t now)
{
    StreamAllocation result;
    result.stream = allocate(miss_addr, stride_bytes, now, result.issued,
                             result.flushed);
    return result;
}

std::uint32_t
StreamSet::allocate(Addr miss_addr, std::int64_t stride_bytes,
                    std::uint64_t now, std::vector<BlockAddr> &issued_out,
                    StreamFlush &flushed_out)
{
    std::uint32_t victim = victimStream();
    flushed_out =
        streams_[victim].allocate(miss_addr, stride_bytes, now, issued_out);
    if (!flushed_out.wasActive)
        --inactive_;
    touch(victim);
    return victim;
}

std::uint32_t
StreamSet::invalidate(BlockAddr block)
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < numStreams_; ++i) {
        if (std::uint32_t k = streams_[i].invalidate(block)) {
            n += k;
            heads_[i] = streams_[i].headBlock();
        }
    }
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return n;
}

std::vector<StreamFlush>
StreamSet::drainAll()
{
    std::vector<StreamFlush> out;
    out.reserve(numStreams_);
    for (auto &s : streams_)
        out.push_back(s.drain());
    heads_.assign(numStreams_, StreamBuffer::kNoBlock);
    inactive_ = numStreams_;
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return out;
}

} // namespace sbsim
