#include "czone_filter.hh"

#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

CzoneFilter::CzoneFilter(std::uint32_t entries, unsigned czone_bits)
    : slots_(entries), czoneBits_(czone_bits)
{
    SBSIM_ASSERT(entries > 0, "czone filter needs entries");
    SBSIM_ASSERT(czone_bits > 0 && czone_bits < 64,
                 "czone bits out of range: ", czone_bits);
}

void
CzoneFilter::setCzoneBits(unsigned bits)
{
    SBSIM_ASSERT(bits > 0 && bits < 64, "czone bits out of range: ", bits);
    czoneBits_ = bits;
    // Changing the partition geometry invalidates in-flight detection.
    for (auto &s : slots_)
        s.valid = false;
}

CzoneFilter::Slot *
CzoneFilter::find(Addr tag)
{
    // Without a branch per slot: valid tags are distinct
    // (auditState()), and the backward scan keeps the first match
    // regardless.
    Slot *found = nullptr;
    for (std::size_t i = slots_.size(); i-- > 0;) {
        Slot &s = slots_[i];
        found = (s.valid & (s.tag == tag)) ? &s : found;
    }
    return found;
}

CzoneFilter::Slot &
CzoneFilter::victim()
{
    Slot *best = &slots_[0];
    for (auto &s : slots_) {
        if (!s.valid)
            return s;
        if (s.tick < best->tick)
            best = &s;
    }
    return *best;
}

void
CzoneFilter::auditState() const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &a = slots_[i];
        if (!a.valid)
            continue;
        SBSIM_ASSERT(a.tick <= tick_, "czone slot ", i, " tick ",
                     a.tick, " ahead of clock ", tick_);
        for (std::size_t j = i + 1; j < slots_.size(); ++j) {
            SBSIM_ASSERT(!slots_[j].valid || slots_[j].tag != a.tag,
                         "duplicate czone partition tag in slots ", i,
                         "/", j);
        }
    }
}

std::optional<StrideAllocation>
CzoneFilter::onMiss(Addr a)
{
    ++lookups_;
    Addr tag = tagOf(a);
    Slot *slot = find(tag);
#ifdef STREAMSIM_CHECKED
    auditState();
#endif

    if (!slot) {
        // INVALID -> META1: start tracking this partition.
        Slot &s = victim();
        s = {tag, a, 0, ++tick_, State::META1, true};
        return std::nullopt;
    }

    slot->tick = ++tick_;
    std::int64_t delta =
        static_cast<std::int64_t>(a) -
        static_cast<std::int64_t>(slot->lastAddr);

    if (delta == 0)
        return std::nullopt; // Repeated address; no new information.

    if (slot->state == State::META1) {
        // META1 -> META2: record the first stride guess.
        slot->stride = delta;
        slot->lastAddr = a;
        slot->state = State::META2;
        return std::nullopt;
    }

    // META2: verify the guess.
    if (delta == slot->stride) {
        StrideAllocation alloc;
        alloc.startAddr = a;
        alloc.stride = slot->stride;
        slot->valid = false; // Entry freed once the stream is detected.
        ++allocations_;
        return alloc;
    }

    // Wrong guess: adopt the new delta and keep verifying.
    slot->stride = delta;
    slot->lastAddr = a;
    return std::nullopt;
}

void
CzoneFilter::reset()
{
    for (auto &s : slots_)
        s = Slot{};
    tick_ = 0;
    lookups_.reset();
    allocations_.reset();
}

} // namespace sbsim
