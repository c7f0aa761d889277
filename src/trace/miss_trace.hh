/**
 * @file
 * The memoised post-L1 reference stream. Stream buffers sit *below*
 * the primary cache, so the sequence of events the secondary level
 * observes — demand misses that escaped the L1 and victim buffer,
 * software-prefetch fetches, and dirty write-backs — is a pure
 * function of (trace, L1 front-end configuration). A MissTrace
 * records that sequence once, together with the front-end cycle
 * deltas between events, and MemorySystem::replayMissTrace drives any
 * secondary configuration (streams / czones / filters / L2 / bus)
 * from it with bit-identical results at a fraction of the cost.
 *
 * See docs/INTERNALS.md "Trace reuse & miss-stream replay" for the
 * invariance argument.
 */

#ifndef STREAMSIM_TRACE_MISS_TRACE_HH
#define STREAMSIM_TRACE_MISS_TRACE_HH

#include <cstddef>
#include <cstdint>

#include "mem/types.hh"
#include "trace/chunk_store.hh"

namespace sbsim {

/** One event of the post-L1 stream, with the front-end cycles that
 *  elapsed since the previous event. */
struct MissRecord
{
    enum class Kind : std::uint8_t
    {
        /** A dirty block left the chip (handleEviction / L1 victim
         *  displacement); access.addr holds the block base. */
        WRITEBACK,
        /** A software PREFETCH reference that missed the L1 and must
         *  fetch its block below the streams. */
        SW_PREFETCH,
        /** A demand miss that escaped both the L1 and the victim
         *  buffer; the reference the streams are consulted with. */
        DEMAND,
    };

    /** The (already translated) reference presented to the secondary
     *  level. */
    MemAccess access;

    /** Front-end cycles accumulated since the previous record, split
     *  by breakdown component so replay reproduces CycleBreakdown
     *  exactly. */
    std::uint64_t dL1HitCycles = 0;
    std::uint64_t dVictimHitCycles = 0;
    std::uint64_t dSwPrefetchCycles = 0;

    Kind kind = Kind::DEMAND;
};

/**
 * Everything finish() reports about the front end, captured at record
 * time so a replayed run's SystemResults are bit-identical to the
 * naive run's. The derived percentages are stored as computed doubles
 * (not recomputed) to guarantee bitwise equality.
 */
struct MissTraceSummary
{
    std::uint64_t references = 0;
    std::uint64_t instructionRefs = 0;
    std::uint64_t dataRefs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1DataMisses = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t swPrefetches = 0;
    std::uint64_t swPrefetchesIssued = 0;
    std::uint64_t swPrefetchesRedundant = 0;

    double l1MissRatePercent = 0;
    double l1DataMissRatePercent = 0;
    double missesPerInstructionPercent = 0;
    double victimHitRatePercent = 0;

    /** Front-end cycles accumulated after the last record (trailing
     *  L1 hits never followed by a miss). */
    std::uint64_t tailL1HitCycles = 0;
    std::uint64_t tailVictimHitCycles = 0;
    std::uint64_t tailSwPrefetchCycles = 0;
};

/**
 * The recorded post-L1 stream plus its front-end summary. Records live
 * in a ChunkStore (trace/chunk_store.hh), so recording a long run
 * never copies an already-recorded event.
 */
class MissTrace
{
  public:
    /** Records per chunk: 64k records ~= 3.5 MB. */
    static constexpr std::size_t kChunkRecords = std::size_t{1} << 16;

    void
    append(MissRecord::Kind kind, const MemAccess &access,
           std::uint64_t d_l1_hit, std::uint64_t d_victim_hit,
           std::uint64_t d_sw_prefetch)
    {
        records_.push_back(
            {access, d_l1_hit, d_victim_hit, d_sw_prefetch, kind});
    }

    std::size_t size() const { return records_.size(); }

    bool empty() const { return records_.empty(); }

    /** Visit every record in recording order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        records_.forEach(fn);
    }

    MissTraceSummary &summary() { return summary_; }
    const MissTraceSummary &summary() const { return summary_; }

    /** Approximate resident footprint, for the cache report. */
    std::size_t
    bytes() const
    {
        return sizeof(*this) + records_.bytes();
    }

    /** Trim the unfilled tail of the last chunk. */
    void shrink() { records_.shrink(); }

  private:
    ChunkStore<MissRecord, kChunkRecords> records_;
    MissTraceSummary summary_;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_MISS_TRACE_HH
