#include "prefetch_engine.hh"

#include "util/logging.hh"

namespace sbsim {

PrefetchEngine::PrefetchEngine(const StreamEngineConfig &config)
    : config_(config),
      mapper_(config.blockSize),
      lengthDist_({5, 10, 15, 20})
{
    SBSIM_ASSERT(config.numStreams > 0, "need at least one stream");

    if (config.partitioned) {
        std::uint32_t d_streams = (config.numStreams + 1) / 2;
        std::uint32_t i_streams = config.numStreams - d_streams;
        if (i_streams == 0)
            i_streams = 1;
        dataStreams_ = std::make_unique<StreamSet>(
            d_streams, config.depth, config.blockSize,
            config.replacement);
        instStreams_ = std::make_unique<StreamSet>(
            i_streams, config.depth, config.blockSize,
            config.replacement);
    } else {
        dataStreams_ = std::make_unique<StreamSet>(
            config.numStreams, config.depth, config.blockSize,
            config.replacement);
    }

    if (config.allocation == AllocationPolicy::UNIT_FILTER) {
        unitFilter_ =
            std::make_unique<UnitStrideFilter>(config.unitFilterEntries);
        switch (config.strideDetection) {
          case StrideDetection::NONE:
            break;
          case StrideDetection::CZONE:
            czoneFilter_ = std::make_unique<CzoneFilter>(
                config.strideFilterEntries, config.czoneBits);
            break;
          case StrideDetection::MIN_DELTA:
            minDelta_ = std::make_unique<MinDeltaDetector>(
                config.strideFilterEntries, config.minDeltaMaxStride);
            break;
        }
    } else {
        SBSIM_ASSERT(config.strideDetection == StrideDetection::NONE,
                     "stride detection requires the unit-filter policy");
    }
}

StreamSet &
PrefetchEngine::setFor(const MemAccess &access)
{
    if (config_.partitioned && access.isInstruction())
        return *instStreams_;
    return *dataStreams_;
}

void
PrefetchEngine::recordRun(const StreamFlush &flushed, std::uint64_t now)
{
    if (flushed.wasActive) {
        SBSIM_EVENT(events_, now, TraceEvent::STREAM_FLUSH, 0,
                    flushed.hitRun);
    }
    if (flushed.wasActive && flushed.hitRun > 0)
        lengthDist_.sample(flushed.hitRun, flushed.hitRun);
}

// analyze:hot-path
void
PrefetchEngine::allocateStream(StreamSet &set, Addr start,
                               std::int64_t stride, std::uint64_t now,
                               EngineOutcome &outcome)
{
    // Issue straight into the member buffer (cleared by the caller):
    // the per-miss hot path must not allocate.
    StreamFlush flushed;
    set.allocate(start, stride, now, lastIssued_, flushed);
    SBSIM_EVENT(events_, now, TraceEvent::STREAM_ALLOC, start,
                static_cast<std::uint64_t>(stride));
    ++stats_.allocations;
    stats_.prefetchesIssued += lastIssued_.size();
    stats_.uselessFlushed += flushed.uselessPrefetches;
    recordRun(flushed, now);
    outcome.allocated = true;
    outcome.prefetchesIssued =
        static_cast<std::uint32_t>(lastIssued_.size());
}

// analyze:hot-path
EngineOutcome
PrefetchEngine::onPrimaryMiss(const MemAccess &access, std::uint64_t now)
{
    SBSIM_ASSERT(!finalized_, "onPrimaryMiss after finalize");
    ++stats_.lookups;
    lastTick_ = now;
    EngineOutcome outcome;
    lastIssued_.clear();

    StreamSet &set = setFor(access);
    StreamLookup lookup;
    if (config_.associativeLookup) {
        extraRefills_.clear();
        lookup = set.lookupAssociative(access.addr, now, extraRefills_);
    } else {
        lookup = set.lookup(access.addr, now);
    }
    if (lookup.hit) {
        ++stats_.hits;
        stats_.uselessFlushed += lookup.skipped;
        outcome.streamHit = true;
        outcome.issueTick = lookup.consume.issueTick;
        if (lookup.consume.refillIssued) {
            lastIssued_.push_back(lookup.consume.refillBlock);
            if (config_.associativeLookup) {
                lastIssued_.insert(lastIssued_.end(),
                                   extraRefills_.begin(),
                                   extraRefills_.end());
            }
            outcome.prefetchesIssued =
                static_cast<std::uint32_t>(lastIssued_.size());
            stats_.prefetchesIssued += lastIssued_.size();
        }
        return outcome;
    }

    ++stats_.streamMisses;

    // Allocation decision.
    std::optional<StrideAllocation> stride_alloc;
    bool allocate_unit = false;

    if (config_.allocation == AllocationPolicy::ALWAYS) {
        allocate_unit = true;
    } else {
        std::uint64_t block = mapper_.blockNumber(access.addr);
        if (unitFilter_->onStreamMiss(block)) {
            SBSIM_EVENT(events_, now, TraceEvent::FILTER_ACCEPT,
                        access.addr, block);
            allocate_unit = true;
        } else {
            SBSIM_EVENT(events_, now, TraceEvent::FILTER_REJECT,
                        access.addr, block);
            if (czoneFilter_) {
                SBSIM_EVENT(events_, now, TraceEvent::CZONE_ASSIGN,
                            access.addr,
                            access.addr >> czoneFilter_->czoneBits());
                stride_alloc = czoneFilter_->onMiss(access.addr);
            } else if (minDelta_) {
                stride_alloc = minDelta_->onMiss(access.addr);
            }
        }
    }

    if (allocate_unit) {
        allocateStream(set, access.addr,
                       static_cast<std::int64_t>(config_.blockSize), now,
                       outcome);
    } else if (stride_alloc) {
        allocateStream(set, stride_alloc->startAddr, stride_alloc->stride,
                       now, outcome);
    }

    return outcome;
}

void
PrefetchEngine::onWriteback(BlockAddr block)
{
    stats_.uselessInvalidated += dataStreams_->invalidate(block);
    if (instStreams_)
        stats_.uselessInvalidated += instStreams_->invalidate(block);
}

void
PrefetchEngine::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    for (StreamSet *set : {dataStreams_.get(), instStreams_.get()}) {
        if (!set)
            continue;
        for (const StreamFlush &f : set->drainAll()) {
            stats_.uselessFlushed += f.uselessPrefetches;
            recordRun(f, lastTick_);
        }
    }
}

void
PrefetchEngine::setCzoneBits(unsigned bits)
{
    SBSIM_ASSERT(czoneFilter_, "no czone filter configured");
    czoneFilter_->setCzoneBits(bits);
}

StatGroup
PrefetchEngine::stats() const
{
    StatGroup g("streams");
    g.add("lookups", static_cast<double>(stats_.lookups),
          "primary-cache misses presented");
    g.add("hits", static_cast<double>(stats_.hits));
    g.add("stream_misses", static_cast<double>(stats_.streamMisses));
    g.add("allocations", static_cast<double>(stats_.allocations));
    g.add("prefetches_issued", static_cast<double>(stats_.prefetchesIssued));
    g.add("useless_flushed", static_cast<double>(stats_.uselessFlushed));
    g.add("useless_invalidated",
          static_cast<double>(stats_.uselessInvalidated));
    g.add("hit_rate_pct", stats_.hitRatePercent());
    g.add("extra_bandwidth_pct", stats_.extraBandwidthPercent());
    return g;
}

void
PrefetchEngine::reset()
{
    for (StreamSet *set : {dataStreams_.get(), instStreams_.get()}) {
        if (set)
            set->drainAll();
    }
    if (unitFilter_)
        unitFilter_->reset();
    if (czoneFilter_)
        czoneFilter_->reset();
    if (minDelta_)
        minDelta_->reset();
    stats_ = StreamEngineStats{};
    lengthDist_.reset();
    lastTick_ = 0;
    finalized_ = false;
}

} // namespace sbsim
