#include "unit_filter.hh"

#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

UnitStrideFilter::UnitStrideFilter(std::uint32_t entries)
    : slots_(entries, kEmpty)
{
    SBSIM_ASSERT(entries > 0, "unit-stride filter needs entries");
}

bool
UnitStrideFilter::onStreamMiss(std::uint64_t miss_block)
{
    SBSIM_AUDIT(miss_block < kEmpty - 1, "block number ", miss_block,
                " collides with the empty-slot sentinel");
    ++lookups_;
    // First matching slot, without a branch per slot: the scan runs
    // backwards so the lowest matching index is the one kept.
    const std::uint64_t *slots = slots_.data();
    const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
    std::uint32_t hit = n;
    for (std::uint32_t i = n; i-- > 0;)
        hit = slots[i] == miss_block ? i : hit;
    if (hit < n) {
        // Unit-stride pattern verified; free the entry (it is not
        // needed for the lifetime of the stream).
        slots_[hit] = kEmpty;
        ++matches_;
        return true;
    }
    // Record the expectation of a reference to the following block.
    slots_[nextVictim_] = miss_block + 1;
    if (++nextVictim_ == slots_.size())
        nextVictim_ = 0;
    // FIFO replacement relies on the conditional wrap above keeping
    // the rotation pointer inside the table.
    SBSIM_AUDIT(nextVictim_ < slots_.size(),
                "filter rotation pointer ", nextVictim_, " out of ",
                slots_.size());
    SBSIM_AUDIT(matches_.value() <= lookups_.value(),
                "more matches than lookups");
    return false;
}

void
UnitStrideFilter::reset()
{
    slots_.assign(slots_.size(), kEmpty);
    nextVictim_ = 0;
    lookups_.reset();
    matches_.reset();
}

} // namespace sbsim
