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
#include <limits>

#include "mem/types.hh"
#include "trace/chunk_store.hh"
#include "util/logging.hh"

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
     *  level. A recorded trace does not keep access.pc (MissTrace
     *  stores records packed, and the secondary level never reads the
     *  pc), so a replayed record carries pc == 0. */
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
 *
 * Each record is stored packed in 16 bytes rather than as a 56-byte
 * MissRecord, so a sweep's replays walk (and the trace cache keeps
 * resident) under a third of the memory. The packed form drops
 * MemAccess::pc: nothing below the L1 reads it (the stream engine,
 * the L2 and the bus see only address, type and size), so replay
 * never needs it and forEach() hands records back with pc == 0. Of
 * the three cycle deltas it keeps the L1-hit delta as 32 bits; a
 * record whose L1-hit delta does not fit, or whose victim-hit or
 * software-prefetch delta is non-zero, is flagged wide and its three
 * full deltas go, in record order, into a second store that only
 * victim-buffer and software-prefetch front ends ever fill.
 */
class MissTrace
{
  public:
    /** Records per chunk: 64k records ~= 1 MB. */
    static constexpr std::size_t kChunkRecords = std::size_t{1} << 16;

    /** Wide-record delta triples per chunk: 4k triples = 96 KB. */
    static constexpr std::size_t kWideChunkRecords = std::size_t{1} << 12;

    /** The stored form of one MissRecord. */
    struct Packed
    {
        Addr addr;
        /** The L1-hit cycle delta; 0 in a wide record. */
        std::uint32_t dL1Hit;
        MissRecord::Kind kind;
        AccessType type;
        std::uint8_t size;
        /** The deltas are the next entry of the wide store. */
        bool wide;
    };
    static_assert(sizeof(Packed) == 16, "a packed record is 16 bytes");

    /** The three full deltas of a wide record. */
    struct WideDeltas
    {
        std::uint64_t dL1Hit;
        std::uint64_t dVictimHit;
        std::uint64_t dSwPrefetch;
    };

    void
    append(MissRecord::Kind kind, const MemAccess &access,
           std::uint64_t d_l1_hit, std::uint64_t d_victim_hit,
           std::uint64_t d_sw_prefetch)
    {
        const bool wide = d_l1_hit > std::numeric_limits<std::uint32_t>::max() || d_victim_hit != 0 ||
                          d_sw_prefetch != 0;
        if (wide)
            wide_.push_back({d_l1_hit, d_victim_hit, d_sw_prefetch});
        records_.push_back(
            {access.addr,
             wide ? 0 : static_cast<std::uint32_t>(d_l1_hit), kind,
             access.type, access.size, wide});
    }

    std::size_t size() const { return records_.size(); }

    bool empty() const { return records_.empty(); }

    /** Records that carry their deltas in the wide store. */
    std::size_t wideRecords() const { return wide_.size(); }

    /** Visit every record, decoded to a MissRecord, in recording
     *  order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const WideDeltas *wide = nullptr;
        std::size_t wide_pos = 0;
        std::size_t wide_left = 0;
        records_.forEach([&](const Packed &p) {
            MissRecord rec;
            rec.access.addr = p.addr;
            rec.access.type = p.type;
            rec.access.size = p.size;
            rec.kind = p.kind;
            if (!p.wide) {
                rec.dL1HitCycles = p.dL1Hit;
            } else {
                if (wide_left == 0) {
                    wide_left = wide_.span(wide_pos, &wide);
                    SBSIM_ASSERT(wide_left > 0,
                                 "wide record without its deltas");
                }
                rec.dL1HitCycles = wide->dL1Hit;
                rec.dVictimHitCycles = wide->dVictimHit;
                rec.dSwPrefetchCycles = wide->dSwPrefetch;
                ++wide;
                ++wide_pos;
                --wide_left;
            }
            fn(static_cast<const MissRecord &>(rec));
        });
    }

    MissTraceSummary &summary() { return summary_; }
    const MissTraceSummary &summary() const { return summary_; }

    /** Approximate resident footprint, for the cache report. */
    std::size_t
    bytes() const
    {
        return sizeof(*this) + records_.bytes() + wide_.bytes();
    }

    /** Trim the unfilled tails of the last chunks. */
    void
    shrink()
    {
        records_.shrink();
        wide_.shrink();
    }

  private:
    ChunkStore<Packed, kChunkRecords> records_;
    ChunkStore<WideDeltas, kWideChunkRecords> wide_;
    MissTraceSummary summary_;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_MISS_TRACE_HH
