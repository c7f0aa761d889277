/**
 * @file
 * Level-1 trace reuse: an immutable MemAccess sequence produced once
 * per unique (benchmark, scale, ref_limit, time_sample) source key,
 * shared across jobs via shared_ptr<const ...>, and replayed by
 * SharedTraceView — a TraceSource whose batched path copies spans out
 * of the shared trace (and whose nextSpan() hands out zero-copy
 * pointers for consumers that can take them, e.g. MemorySystem::run).
 *
 * The references live in a ChunkStore (trace/chunk_store.hh): a
 * source drains straight into fixed-size chunks, with no regrowth or
 * shrink copy. Readers see the layout only as span(), which yields
 * the contiguous run from a position to the end of its chunk.
 */

#ifndef STREAMSIM_TRACE_MATERIALIZED_TRACE_HH
#define STREAMSIM_TRACE_MATERIALIZED_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "trace/chunk_store.hh"
#include "trace/source.hh"
#include "trace/time_sampler.hh"

namespace sbsim {

/** An immutable in-memory reference trace, safe to share between
 *  threads (readers only ever see const state). */
class MaterializedTrace
{
  public:
    /** References per chunk: 64k references = 1.5 MB. */
    static constexpr std::size_t kChunkRefs = std::size_t{1} << 16;

    explicit MaterializedTrace(const std::vector<MemAccess> &refs)
    {
        for (const MemAccess &a : refs)
            refs_.push_back(a);
        refs_.shrink();
    }

    /**
     * As above, recording the TimeSampler pass-through counts of the
     * chain that produced @p refs, so runs replaying this trace can
     * still report them (the sampler itself is gone by replay time).
     */
    MaterializedTrace(const std::vector<MemAccess> &refs,
                      std::uint64_t sampler_sampled,
                      std::uint64_t sampler_skipped)
        : MaterializedTrace(refs)
    {
        setSamplerCounts(sampler_sampled, sampler_skipped);
    }

    /**
     * Drain @p src to completion. When @p sampler is the chain's
     * TimeSampler, its pass-through counts are recorded after the
     * drain.
     */
    explicit MaterializedTrace(TraceSource &src,
                               const TimeSampler *sampler = nullptr)
    {
        refs_.appendFrom([&src](MemAccess *out, std::size_t max) {
            return src.nextBatch(out, max);
        });
        refs_.shrink();
        if (sampler)
            setSamplerCounts(sampler->sampledCount(),
                             sampler->skippedCount());
    }

    /** Drain @p src to completion into a new shared trace. */
    static std::shared_ptr<const MaterializedTrace>
    fromSource(TraceSource &src, const TimeSampler *sampler = nullptr)
    {
        return std::make_shared<const MaterializedTrace>(src, sampler);
    }

    std::size_t size() const { return refs_.size(); }

    /**
     * Point @p out at the contiguous run of references from @p pos to
     * the end of its chunk. @return the run's length; 0 when @p pos
     * >= size().
     */
    std::size_t
    span(std::size_t pos, const MemAccess **out) const
    {
        return refs_.span(pos, out);
    }

    /** True when the producing chain's TimeSampler counts were
     *  recorded at materialization time. */
    bool hasSamplerCounts() const { return hasSamplerCounts_; }
    std::uint64_t samplerSampled() const { return samplerSampled_; }
    std::uint64_t samplerSkipped() const { return samplerSkipped_; }

    /** Approximate resident footprint, for the cache report. */
    std::size_t bytes() const { return sizeof(*this) + refs_.bytes(); }

  private:
    void
    setSamplerCounts(std::uint64_t sampled, std::uint64_t skipped)
    {
        samplerSampled_ = sampled;
        samplerSkipped_ = skipped;
        hasSamplerCounts_ = true;
    }

    ChunkStore<MemAccess, kChunkRefs> refs_;
    std::uint64_t samplerSampled_ = 0;
    std::uint64_t samplerSkipped_ = 0;
    bool hasSamplerCounts_ = false;
};

/**
 * A TraceSource view over a MaterializedTrace. Each consumer owns its
 * own view (a cursor plus a strong reference keeping the trace
 * alive), so any number of jobs replay the same buffer concurrently
 * without synchronisation. Delivers exactly the materialised
 * sequence: next(), nextBatch() and nextSpan() are interchangeable.
 */
class SharedTraceView final : public TraceSource
{
  public:
    explicit SharedTraceView(
        std::shared_ptr<const MaterializedTrace> trace)
        : trace_(std::move(trace))
    {}

    bool
    next(MemAccess &out) override
    {
        if (cur_ == end_ && !refill())
            return false;
        out = *cur_++;
        return true;
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && (cur_ != end_ || refill())) {
            std::size_t take = std::min<std::size_t>(max - n, end_ - cur_);
            std::copy_n(cur_, take, out + n);
            cur_ += take;
            n += take;
        }
        return n;
    }

    /**
     * Zero-copy variant of nextBatch: point @p out at the next
     * contiguous span of the shared trace and consume it. The span
     * stays valid for the lifetime of this view (which keeps the trace
     * alive). Call until it returns 0 to consume the whole trace.
     * @return the span length; 0 when exhausted.
     */
    std::size_t
    nextSpan(const MemAccess **out)
    {
        if (cur_ == end_ && !refill())
            return 0;
        *out = cur_;
        std::size_t n = static_cast<std::size_t>(end_ - cur_);
        cur_ = end_;
        return n;
    }

    void
    reset() override
    {
        pos_ = 0;
        cur_ = end_ = nullptr;
    }

    std::size_t
    remaining() const
    {
        return trace_->size() - pos_ +
               static_cast<std::size_t>(end_ - cur_);
    }

    const std::shared_ptr<const MaterializedTrace> &trace() const
    {
        return trace_;
    }

  private:
    /** Load the span at pos_ into [cur_, end_); false at the end. */
    bool
    refill()
    {
        std::size_t n = trace_->span(pos_, &cur_);
        end_ = cur_ + n;
        pos_ += n;
        return n > 0;
    }

    std::shared_ptr<const MaterializedTrace> trace_;
    /** Start of the first span not yet loaded. */
    std::size_t pos_ = 0;
    /** The loaded span's unread part. */
    const MemAccess *cur_ = nullptr;
    const MemAccess *end_ = nullptr;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_MATERIALIZED_TRACE_HH
