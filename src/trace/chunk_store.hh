/**
 * @file
 * ChunkStore: the append-only storage behind the two trace artifacts
 * (MaterializedTrace's references, MissTrace's post-L1 records).
 *
 * Elements live in fixed-size chunks rather than one flat vector.
 * Growing a flat vector by doubling copies every element already
 * stored on each step, copies it once more to shrink, and maps fresh
 * pages for every large trace; a chunk never moves once allocated, so
 * appending is copy-free. The only slack is the unfilled tail of the
 * last chunk, which shrink() returns in place.
 *
 * A store that dies hands its whole chunks to a process-wide pool of
 * its type, and the next store takes them from there. Left to
 * malloc, freed chunks went back to the kernel by the arena's own
 * trimming rules, so a varying share of each new trace (40-100 %,
 * pass to pass) was page-faulted in again; pooled chunks are already
 * resident. The pool only holds chunks some store once held live, so
 * it never raises the process's memory above the peak its traces
 * already reached; past 1 GiB, freed chunks go back to malloc.
 *
 * The chunk layout is private to this class: readers walk a store
 * through span(), which hands out the contiguous run that starts at a
 * position and ends at its chunk's end.
 */

#ifndef STREAMSIM_TRACE_CHUNK_STORE_HH
#define STREAMSIM_TRACE_CHUNK_STORE_HH

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sbsim {

/** An append-only sequence of @p T in chunks of @p ChunkElems. */
template <typename T, std::size_t ChunkElems>
class ChunkStore
{
    static_assert(ChunkElems > 0 && (ChunkElems & (ChunkElems - 1)) == 0,
                  "chunk size must be a power of two");
    // Chunks are raw malloc storage, written by assignment and
    // trimmed by realloc: that is only sound for implicit-lifetime,
    // trivially copyable elements.
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "chunk elements must be trivially copyable");

  public:
    /** Append one element. */
    void
    push_back(const T &value)
    {
        makeRoom();
        chunks_.back().get()[tail_++] = value;
    }

    /**
     * Append what @p fill writes until it writes nothing. @p fill is
     * called as fill(T *out, std::size_t max) and returns how many
     * elements it stored at out[0, n), n <= max (a TraceSource's
     * nextBatch shape), so a source drains straight into the chunks.
     * Leaves a trailing empty chunk for shrink() to drop.
     */
    template <typename Fill>
    void
    appendFrom(Fill &&fill)
    {
        for (;;) {
            makeRoom();
            std::size_t got =
                fill(chunks_.back().get() + tail_, lastCapacity_ - tail_);
            if (got == 0)
                return;
            tail_ += got;
        }
    }

    std::size_t
    size() const
    {
        return chunks_.empty()
                   ? 0
                   : (chunks_.size() - 1) * ChunkElems + tail_;
    }

    bool empty() const { return size() == 0; }

    /**
     * Point @p out at the contiguous run of elements that starts at
     * @p pos and ends at the end of its chunk (or of the store).
     * @return the run's length; 0 when @p pos >= size().
     */
    std::size_t
    span(std::size_t pos, const T **out) const
    {
        const std::size_t chunk = pos / ChunkElems;
        if (chunk >= chunks_.size())
            return 0;
        const std::size_t off = pos % ChunkElems;
        const std::size_t end =
            chunk + 1 == chunks_.size() ? tail_ : ChunkElems;
        if (off >= end)
            return 0;
        *out = chunks_[chunk].get() + off;
        return end - off;
    }

    /** Visit every element in append order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const T *run;
        for (std::size_t pos = 0, n; (n = span(pos, &run)) > 0;
             pos += n) {
            for (std::size_t i = 0; i < n; ++i)
                fn(run[i]);
        }
    }

    /** Sum of the chunks' capacities, in bytes. */
    std::size_t
    bytes() const
    {
        return chunks_.empty()
                   ? 0
                   : ((chunks_.size() - 1) * ChunkElems +
                      lastCapacity_) * sizeof(T);
    }

    /**
     * Return the unfilled tail of the last chunk to the allocator (in
     * place: realloc never moves a shrinking block it can split), or
     * drop the last chunk when it holds nothing.
     */
    void
    shrink()
    {
        if (chunks_.empty() || tail_ == lastCapacity_)
            return;
        if (tail_ == 0) {
            chunks_.pop_back();
            tail_ = chunks_.empty() ? 0 : ChunkElems;
            lastCapacity_ = ChunkElems;
            return;
        }
        // A refused trim keeps the larger block; nothing is lost.
        (void)resizeLast(tail_);
    }

  private:
    /**
     * Whole chunks freed by dead stores, for the next to reuse: a
     * LIFO list threaded through the free chunks themselves (each
     * holds the next one's address in its first bytes), so giving a
     * chunk back never allocates.
     */
    class Pool
    {
      public:
        /** Never destroyed, so a store in a static that outlives
         *  every other can still return its chunks. */
        static Pool &
        instance()
        {
            static Pool *pool = new Pool; // analyze:allow(static-state) mutex-guarded free list of chunk memory; which chunk a store gets affects speed only, never what it holds
            return *pool;
        }

        /** A pooled chunk, or a new one; nullptr when out of memory. */
        T *
        take()
        {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (head_) {
                    void *chunk = head_;
                    std::memcpy(&head_, chunk, sizeof head_);
                    --count_;
                    return static_cast<T *>(chunk);
                }
            }
            return static_cast<T *>(std::malloc(kChunkBytes));
        }

        void
        give(T *chunk) noexcept
        {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (count_ < kPoolBytes / kChunkBytes) {
                    std::memcpy(static_cast<void *>(chunk), &head_,
                                sizeof head_);
                    head_ = chunk;
                    ++count_;
                    return;
                }
            }
            std::free(chunk);
        }

      private:
        /** Bytes of freed chunks kept; past it they go to malloc. */
        static constexpr std::size_t kPoolBytes = std::size_t{1} << 30;
        static constexpr std::size_t kChunkBytes = ChunkElems * sizeof(T);
        static_assert(kChunkBytes >= sizeof(void *),
                      "a free chunk must hold the free list's link");

        Pool() = default;

        std::mutex mu_;
        void *head_ = nullptr;
        std::size_t count_ = 0;
    };

    /** Frees a chunk: whole ones to the pool, a trimmed one (only
     *  ever the last) to malloc. */
    struct Free
    {
        bool whole = true;

        void
        operator()(T *p) const
        {
            if (whole)
                Pool::instance().give(p);
            else
                std::free(p);
        }
    };

    /** Make the last chunk non-full: regrow a shrunk last chunk to a
     *  whole one, or add a chunk. */
    void
    makeRoom()
    {
        if (!chunks_.empty() && tail_ < lastCapacity_)
            return;
        if (!chunks_.empty() && lastCapacity_ < ChunkElems) {
            if (!resizeLast(ChunkElems))
                throw std::bad_alloc();
            return;
        }
        std::unique_ptr<T[], Free> chunk(Pool::instance().take());
        if (!chunk)
            throw std::bad_alloc();
        chunks_.push_back(std::move(chunk));
        tail_ = 0;
        lastCapacity_ = ChunkElems;
    }

    /** realloc the last chunk to @p elems; false (chunk unchanged)
     *  when the allocator refuses. */
    bool
    resizeLast(std::size_t elems)
    {
        void *moved =
            std::realloc(chunks_.back().get(), elems * sizeof(T));
        if (!moved)
            return false;
        (void)chunks_.back().release(); // realloc took ownership.
        chunks_.back().reset(static_cast<T *>(moved));
        chunks_.back().get_deleter().whole = elems == ChunkElems;
        lastCapacity_ = elems;
        return true;
    }

    std::vector<std::unique_ptr<T[], Free>> chunks_;
    /** Elements stored in the last chunk. */
    std::size_t tail_ = 0;
    /** Capacity of the last chunk (ChunkElems until shrink()). */
    std::size_t lastCapacity_ = ChunkElems;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_CHUNK_STORE_HH
