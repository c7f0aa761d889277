/**
 * @file
 * SampledSource: replay of one selected interval of a sampling plan
 * (sibling of TimeSampler, but plan-driven rather than periodic).
 *
 * The source delivers the interval's warmup prefix first and then
 * stops (nextBatch() returns 0), so the driver can flip the memory
 * system into measuring mode (MemorySystem::endWarmup()) before
 * calling startMeasurement() to release the measured references.
 * Warmup references are thereby "flagged" by position, not by
 * per-access metadata — the hot path stays untouched.
 */

#ifndef STREAMSIM_TRACE_SAMPLED_SOURCE_HH
#define STREAMSIM_TRACE_SAMPLED_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "trace/phase_profile.hh"
#include "util/logging.hh"

namespace sbsim {

/** Replays [warmupBegin, begin) then, after startMeasurement(),
 *  [begin, begin + length) of a shared materialized trace. */
class SampledSource final : public TraceSource
{
  public:
    SampledSource(std::shared_ptr<const MaterializedTrace> trace,
                  const SampledInterval &interval)
        : trace_(std::move(trace)), interval_(interval),
          pos_(interval.warmupBegin)
    {
        SBSIM_ASSERT(trace_ != nullptr,
                     "sampled source needs a materialized trace");
        SBSIM_ASSERT(interval_.warmupBegin <= interval_.begin &&
                     interval_.begin + interval_.length <=
                         trace_->size(),
                     "sampled interval out of trace bounds");
    }

    /** Release the measured references after warmup. */
    void startMeasurement() { measuring_ = true; }

    bool inWarmup() const { return !measuring_; }

    bool
    next(MemAccess &out) override
    {
        if (pos_ >= limit())
            return false;
        const MemAccess *run;
        trace_->span(pos_++, &run);
        out = *run;
        return true;
    }

    /** Copies span by span: an interval may straddle a chunk. */
    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t got = 0;
        const MemAccess *run;
        while (got < max && pos_ < limit()) {
            std::uint64_t n = std::min<std::uint64_t>(
                {max - got, limit() - pos_, trace_->span(pos_, &run)});
            std::copy_n(run, n, out + got);
            pos_ += n;
            got += n;
        }
        return got;
    }

    void
    reset() override
    {
        pos_ = interval_.warmupBegin;
        measuring_ = false;
    }

  private:
    /** One past the last deliverable position in the current phase. */
    std::uint64_t
    limit() const
    {
        return measuring_ ? interval_.begin + interval_.length
                          : interval_.begin;
    }

    std::shared_ptr<const MaterializedTrace> trace_;
    SampledInterval interval_;
    std::uint64_t pos_;
    bool measuring_ = false;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_SAMPLED_SOURCE_HH
