/**
 * @file
 * The unit-stride allocation filter of Section 6 (Figure 4). A stream
 * is allocated only after misses to two *consecutive* cache blocks:
 * the filter is a small history buffer that stores block a+1 when a
 * stream miss to block a occurs; a later stream miss that matches a
 * stored entry proves a unit-stride pattern and triggers allocation.
 * Isolated references never match and so never allocate, which is what
 * cuts the wasted prefetch bandwidth (Fig. 5).
 */

#ifndef STREAMSIM_STREAM_UNIT_FILTER_HH
#define STREAMSIM_STREAM_UNIT_FILTER_HH

#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "util/stats.hh"

namespace sbsim {

/** History buffer of expected next-block addresses, FIFO-replaced. */
class UnitStrideFilter
{
  public:
    /** @param entries Filter capacity (paper: 8-16). */
    explicit UnitStrideFilter(std::uint32_t entries);

    /**
     * Process a stream miss to block number @p miss_block. Block
     * numbers of blocks of two or more bytes stay below 2^63, clear of
     * the empty-slot sentinel.
     *
     * @return true when the miss matches a stored expectation, i.e. a
     *         unit-stride pattern was verified and a stream should be
     *         allocated; the entry is freed. Otherwise the expectation
     *         miss_block + 1 is recorded and false is returned.
     */
    bool onStreamMiss(std::uint64_t miss_block);

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t matches() const { return matches_.value(); }
    double matchRatePercent() const { return percent(matches(), lookups()); }

    void reset();

  private:
    /** An empty slot; no block number or expectation equals it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** Expected next-block numbers, kEmpty when free. */
    std::vector<std::uint64_t> slots_;
    std::uint32_t nextVictim_ = 0;
    Counter lookups_;
    Counter matches_;
};

} // namespace sbsim

#endif // STREAMSIM_STREAM_UNIT_FILTER_HH
