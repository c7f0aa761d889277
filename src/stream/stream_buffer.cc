#include "stream_buffer.hh"

#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

StreamBuffer::StreamBuffer(std::uint32_t depth, std::uint32_t block_size)
    : mapper_(block_size), depth_(depth), entries_(depth)
{
    SBSIM_ASSERT(depth > 0, "stream depth must be nonzero");
    SBSIM_ASSERT(block_size >= 2, "stream block size must be at least 2 "
                 "bytes, got ", block_size);
}

void
StreamBuffer::auditState() const
{
    SBSIM_ASSERT(head_ < depth_, "head ", head_, " out of range");
    SBSIM_ASSERT(count_ <= depth_, "count ", count_, " over depth ",
                 depth_);
    SBSIM_ASSERT(active_ || count_ == 0,
                 "inactive stream holds ", count_, " entries");
    // The conditional-wrap fast path (wrap() instead of %) is only
    // correct if indices stay in [0, 2*depth): walk every slot and
    // check the window structure it is supposed to preserve.
    for (std::uint32_t i = 0; i < depth_; ++i) {
        // Is slot i inside the circular window [head_, head_+count_)?
        std::uint32_t offset = i >= head_ ? i - head_ : i + depth_ - head_;
        bool in_window = offset < count_;
        if (!in_window) {
            SBSIM_ASSERT(entries_[i].block == kNoBlock,
                         "valid entry at slot ", i,
                         " outside window [", head_, ", ", head_, "+",
                         count_, ")");
        }
    }
    for (std::uint32_t i = 0; i < count_; ++i) {
        const Entry &a = entries_[wrap(head_ + i)];
        if (a.block == kNoBlock)
            continue;
        for (std::uint32_t j = i + 1; j < count_; ++j) {
            const Entry &b = entries_[wrap(head_ + j)];
            SBSIM_ASSERT(a.block != b.block,
                         "duplicate block ", a.block,
                         " in stream FIFO positions ", i, "/", j);
        }
    }
}

BlockAddr
StreamBuffer::issuePrefetch(std::uint64_t now)
{
    SBSIM_ASSERT(count_ < depth_, "prefetch into a full stream");
    // Advance until the prefetch address leaves the last queued block,
    // so every FIFO entry names a distinct cache block even when the
    // stride is smaller than a block.
    BlockAddr block = mapper_.blockBase(nextAddr_);
    while (block == lastBlock_) {
        nextAddr_ += static_cast<Addr>(stride_);
        block = mapper_.blockBase(nextAddr_);
    }
    nextAddr_ += static_cast<Addr>(stride_);
    lastBlock_ = block;

    std::uint32_t slot = wrap(head_ + count_);
    entries_[slot] = {block, now};
    ++count_;
    return block;
}

StreamFlush
StreamBuffer::allocate(Addr miss_addr, std::int64_t stride_bytes,
                       std::uint64_t now, std::vector<BlockAddr> &issued_out)
{
    SBSIM_ASSERT(stride_bytes != 0, "stream stride must be nonzero");

    StreamFlush flushed = drain();

    active_ = true;
    stride_ = stride_bytes;
    nextAddr_ = miss_addr + static_cast<Addr>(stride_);
    lastBlock_ = mapper_.blockBase(miss_addr);
    hitRun_ = 0;

    for (std::uint32_t i = 0; i < depth_; ++i)
        issued_out.push_back(issuePrefetch(now));
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return flushed;
}

int
StreamBuffer::probeAnyBlock(BlockAddr block) const
{
    if (!active_)
        return -1;
    for (std::uint32_t i = 0; i < count_; ++i) {
        if (entries_[wrap(head_ + i)].block == block)
            return static_cast<int>(i);
    }
    return -1;
}

StreamConsume
StreamBuffer::consumeHead(std::uint64_t now)
{
    SBSIM_ASSERT(headBlock() != kNoBlock,
                 "consumeHead without a valid head");
    StreamConsume result;
    result.block = entries_[head_].block;
    result.issueTick = entries_[head_].issueTick;

    entries_[head_].block = kNoBlock;
    head_ = wrap(head_ + 1);
    --count_;
    ++hitRun_;

    result.refillBlock = issuePrefetch(now);
    result.refillIssued = true;
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return result;
}

StreamConsume
StreamBuffer::consumeAt(int position, std::uint64_t now,
                        std::uint32_t &skipped_out,
                        std::vector<BlockAddr> &extra_refills_out)
{
    SBSIM_ASSERT(position >= 0 &&
                     static_cast<std::uint32_t>(position) < count_,
                 "consumeAt out of range");
    // Discard bypassed entries ahead of the hit.
    for (int i = 0; i < position; ++i) {
        Entry &e = entries_[head_];
        if (e.block != kNoBlock)
            ++skipped_out;
        e.block = kNoBlock;
        head_ = wrap(head_ + 1);
        --count_;
    }

    StreamConsume result;
    result.block = entries_[head_].block;
    result.issueTick = entries_[head_].issueTick;
    entries_[head_].block = kNoBlock;
    head_ = wrap(head_ + 1);
    --count_;
    ++hitRun_;

    // Refill the FIFO to full depth.
    result.refillBlock = issuePrefetch(now);
    result.refillIssued = true;
    while (count_ < depth_)
        extra_refills_out.push_back(issuePrefetch(now));
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return result;
}

std::uint32_t
StreamBuffer::invalidate(BlockAddr block)
{
    // Slots outside the FIFO window hold kNoBlock (auditState()), so
    // every slot can be compared without walking the window.
    std::uint32_t n = 0;
    for (Entry &e : entries_) {
        if (e.block == block) {
            e.block = kNoBlock;
            ++n;
        }
    }
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return n;
}

StreamFlush
StreamBuffer::drain()
{
    StreamFlush result;
    result.wasActive = active_;
    result.hitRun = hitRun_;
    for (std::uint32_t i = 0; i < count_; ++i) {
        Entry &e = entries_[wrap(head_ + i)];
        if (e.block != kNoBlock)
            ++result.uselessPrefetches;
        e.block = kNoBlock;
    }
    head_ = 0;
    count_ = 0;
    active_ = false;
    stride_ = 0;
    hitRun_ = 0;
#ifdef STREAMSIM_CHECKED
    auditState();
#endif
    return result;
}

} // namespace sbsim
