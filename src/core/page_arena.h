/**
 * @file
 * Refcounted fixed-size-page allocator with copy-on-write semantics
 * and exact byte accounting — the memory substrate for prefix-shared
 * session state (DESIGN.md §4.6).
 *
 * A PageArena hands out pages of `pageBytes()` bytes each, identified
 * by a PageRef that carries the page id plus cached data/refcount
 * pointers. Buffers built on top copy by bumping refcounts. The first
 * write to a shared page of a PagedVector copies that page
 * (makeWritable). A PagedRows copies only the row it writes, into a
 * private row overlay, so forking a session costs O(rows written),
 * not O(pages touched) and not O(session bytes).
 *
 * The arena also keeps a running total of the heap bytes its owners
 * hold beside their pages (page indexes, overlays, code indexes):
 * each owner posts its own changes (postHeapBytes()). liveBytes() +
 * heapBytes() is then the whole footprint of everything allocated
 * from the arena, read in O(1).
 *
 * Thread-safety: structural operations (allocate, release, the CoW
 * slow path) take the arena mutex; a heap post is one atomic add.
 * Reads and the sole-owner check are lock-free — PageRef caches the
 * data and refcount pointers, page storage is segmented so pages
 * never move, and a refcount of 1 can only change from the owning
 * buffer's own thread. This is exactly
 * the access pattern of a serving flush: forked sessions step in parallel
 * and CoW concurrently, but a given page is written only by the one
 * session that solely owns it, and a row overlay belongs to its one
 * buffer.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/logging.h"
#include "core/matrix.h"
#include "core/types.h"

namespace cta::core {

/** Handle to one arena page. Copyable; does not own a reference —
 *  refcounting is explicit via PageArena::addRef/release. */
struct PageRef
{
    std::uint32_t id = 0;
    std::byte *data = nullptr;
    std::atomic<std::uint32_t> *refs = nullptr;

    /** Lock-free: true iff this buffer is the only owner. Stable when
     *  called from the owning buffer's thread (nobody else can take a
     *  new reference to a refs==1 page). */
    bool solelyOwned() const
    {
        return refs->load(std::memory_order_acquire) == 1;
    }
};

/**
 * Fixed-size-page allocator. Pages are zero-filled on every
 * allocation (including free-list reuse) so restored and fresh
 * buffers are bit-identical regardless of allocation history.
 */
class PageArena
{
  public:
    static constexpr std::size_t kDefaultPageBytes = 4096;

    explicit PageArena(std::size_t page_bytes = kDefaultPageBytes);

    PageArena(const PageArena &) = delete;
    PageArena &operator=(const PageArena &) = delete;

    /** CTA_PAGE_BYTES (K/M/G suffixes allowed), default 4096. */
    static std::size_t pageBytesFromEnv();

    std::size_t pageBytes() const { return pageBytes_; }

    /** Allocates a zero-filled page with refcount 1. */
    PageRef allocate();

    /** Takes one extra reference to @p ref's page. */
    void addRef(const PageRef &ref);

    /** addRef over a whole buffer's worth of pages. */
    void addRefs(std::span<const PageRef> refs);

    /** Drops one reference; frees the page at zero. */
    void release(const PageRef &ref);

    void releaseAll(std::span<const PageRef> refs);

    /**
     * Copy-on-write: returns @p ref unchanged when solely owned;
     * otherwise copies the page contents into a fresh page, drops the
     * shared reference, and returns the private copy.
     */
    PageRef makeWritable(const PageRef &ref);

    /** Pages currently allocated (refcount > 0). */
    std::size_t livePages() const;
    /** livePages() * pageBytes(). */
    std::size_t liveBytes() const;
    /** Pages with refcount >= 2 (each priced once by the owner that
     *  reports shared bytes — see SessionManager::residentBytes). */
    std::size_t sharedPages() const;
    std::size_t sharedBytes() const;
    /** CoW page copies performed since construction. */
    std::uint64_t cowCopies() const;

    /** Replaces an owner's posted heap bytes @p before with @p after
     *  (lock-free; owners may post concurrently). */
    void postHeapBytes(std::size_t before, std::size_t after)
    {
        if (after != before)
            heapBytes_.fetch_add(after - before,
                                 std::memory_order_relaxed);
    }

    /** Sum of the heap bytes every owner has posted and not yet
     *  withdrawn. */
    std::size_t heapBytes() const
    {
        return heapBytes_.load(std::memory_order_relaxed);
    }

    /** Cumulative pages ever allocated (monotone; free-list reuse
     *  counts again — an allocation-rate proxy, not a footprint). */
    std::uint64_t allocated() const;

  private:
    struct Page
    {
        std::unique_ptr<std::byte[]> data;
        std::atomic<std::uint32_t> refs{0};
    };

    static constexpr std::size_t kPagesPerSegment = 256;

    struct Segment
    {
        Page pages[kPagesPerSegment];
    };

    Page &page(std::uint32_t id)
    {
        return segments_[id / kPagesPerSegment]
            ->pages[id % kPagesPerSegment];
    }

    /** Allocates with the lock held; @p zero clears the page (every
     *  caller but a copy-on-write, which overwrites all of it). */
    PageRef allocateLocked(bool zero);
    void releaseLocked(const PageRef &ref);

    const std::size_t pageBytes_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Segment>> segments_;
    std::vector<std::uint32_t> freeList_;
    std::size_t allocatedSlots_ = 0;
    std::size_t livePages_ = 0;
    std::size_t sharedPages_ = 0;
    std::uint64_t cowCopies_ = 0;
    std::uint64_t allocated_ = 0;
    /** Unsigned wrap-around makes a negative post subtract. */
    std::atomic<std::size_t> heapBytes_{0};
};

/**
 * Append-only-ish vector of trivially copyable T stored in arena
 * pages. Copying shares every page CoW; element writes go through
 * set() which privatises just the touched page.
 */
template <typename T>
class PagedVector
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    explicit PagedVector(std::shared_ptr<PageArena> arena)
        : arena_(std::move(arena)),
          perPage_(arena_->pageBytes() / sizeof(T))
    {
        CTA_REQUIRE(perPage_ > 0, "page size ", arena_->pageBytes(),
                    " too small for element size ", sizeof(T));
    }

    PagedVector(const PagedVector &other)
        : arena_(other.arena_),
          perPage_(other.perPage_),
          pages_(other.pages_),
          size_(other.size_)
    {
        arena_->addRefs(pages_);
    }

    PagedVector &operator=(const PagedVector &other)
    {
        if (this == &other)
            return *this;
        other.arena_->addRefs(other.pages_);
        arena_->releaseAll(pages_);
        arena_ = other.arena_;
        perPage_ = other.perPage_;
        pages_ = other.pages_;
        size_ = other.size_;
        return *this;
    }

    PagedVector(PagedVector &&other) noexcept
        : arena_(std::move(other.arena_)),
          perPage_(other.perPage_),
          pages_(std::move(other.pages_)),
          size_(other.size_)
    {
        other.pages_.clear();
        other.size_ = 0;
    }

    PagedVector &operator=(PagedVector &&other) noexcept
    {
        if (this == &other)
            return *this;
        if (arena_)
            arena_->releaseAll(pages_);
        arena_ = std::move(other.arena_);
        perPage_ = other.perPage_;
        pages_ = std::move(other.pages_);
        size_ = other.size_;
        other.pages_.clear();
        other.size_ = 0;
        return *this;
    }

    ~PagedVector()
    {
        if (arena_)
            arena_->releaseAll(pages_);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T operator[](std::size_t i) const
    {
        T value;
        std::memcpy(&value, slot(i), sizeof(T));
        return value;
    }

    void set(std::size_t i, const T &value)
    {
        CTA_REQUIRE(i < size_, "paged vector index ", i,
                    " out of range [0, ", size_, ")");
        ensureWritable(i / perPage_);
        std::memcpy(slot(i), &value, sizeof(T));
    }

    void push_back(const T &value)
    {
        if (size_ == pages_.size() * perPage_)
            pages_.push_back(arena_->allocate());
        else
            ensureWritable(size_ / perPage_);
        ++size_;
        std::memcpy(slot(size_ - 1), &value, sizeof(T));
    }

    void clear()
    {
        arena_->releaseAll(pages_);
        pages_.clear();
        size_ = 0;
    }

    std::size_t pageCount() const { return pages_.size(); }

    std::size_t sharedPageCount() const
    {
        std::size_t shared = 0;
        for (const PageRef &ref : pages_)
            shared += ref.solelyOwned() ? 0 : 1;
        return shared;
    }

    /** Heap bytes beside the pages: the PageRef index. */
    std::size_t heapBytes() const
    {
        return pages_.capacity() * sizeof(PageRef);
    }

    /** Bytes owned by this buffer alone: solely-owned pages plus
     *  heapBytes(). Shared pages are priced once by the arena. */
    std::size_t privateBytes() const
    {
        std::size_t bytes = heapBytes();
        for (const PageRef &ref : pages_)
            if (ref.solelyOwned())
                bytes += arena_->pageBytes();
        return bytes;
    }

    const PageArena &arena() const { return *arena_; }

  private:
    std::byte *slot(std::size_t i) const
    {
        CTA_REQUIRE(i < size_, "paged vector index ", i,
                    " out of range [0, ", size_, ")");
        return pages_[i / perPage_].data + (i % perPage_) * sizeof(T);
    }

    void ensureWritable(std::size_t page_idx)
    {
        PageRef &ref = pages_[page_idx];
        if (!ref.solelyOwned())
            ref = arena_->makeWritable(ref);
    }

    std::shared_ptr<PageArena> arena_;
    std::size_t perPage_;
    std::vector<PageRef> pages_;
    std::size_t size_ = 0;
};

/**
 * Row store with a fixed column count, rows packed into arena pages
 * (rowsPerPage = pageBytes / rowBytes; the page tail beyond the last
 * whole row stays zero). The paged replacement for the monolithic
 * Matrix buffers of the incremental compression state.
 *
 * Copy-on-write is row-granular. A write to a row on a solely owned
 * page lands in place. A write to a row on a shared page copies just
 * that row into the buffer's private overlay; the shared page stays
 * as it is. An appended row goes to the overlay too when its slot is
 * on a shared tail page, or when the tail page is full and the
 * overlay already holds rows (a fork's few new rows then need no
 * mostly empty page). Reads see the overlay row in place of the page
 * row. A buffer that never shares a page (a never-forked session)
 * never has an overlay. foldOverlay() writes the overlay back into
 * (privatised or fresh) pages.
 */
class PagedRows
{
  public:
    PagedRows(std::shared_ptr<PageArena> arena, Index cols);

    PagedRows(const PagedRows &other);
    PagedRows &operator=(const PagedRows &other);
    PagedRows(PagedRows &&other) noexcept;
    PagedRows &operator=(PagedRows &&other) noexcept;
    ~PagedRows();

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    std::span<const Real> row(Index r) const
    {
        return {rowPtr(r), static_cast<std::size_t>(cols_)};
    }

    /** Appends a pointer to each row, in row order, to @p out — one
     *  page walk instead of a per-row page lookup, then the overlay
     *  rows patched in. The pointers are valid until the next
     *  mutation of this store. */
    void appendRowPointers(std::vector<const Real *> &out) const;

    /** A writable view of row @p r: in place on a solely owned page,
     *  else the row's overlay copy (made on first write). Valid until
     *  the next mutation of this store. */
    std::span<Real> writableRow(Index r);

    void appendRow(std::span<const Real> values);

    /** Appends a row of zeros (explicitly cleared — safe even if the
     *  page came off the free list). */
    void appendZeroRow();

    void clear();

    Matrix toMatrix() const;

    /** Ids of the rows held in the overlay, ascending: every row
     *  written while its page was shared, and the appended rows the
     *  class comment names. */
    std::span<const Index> overlayRows() const { return overlayIds_; }

    /** Writes every overlay row into its page (privatising the page
     *  CoW) and frees the overlay. Contents are unchanged. */
    void foldOverlay();

    std::size_t pageCount() const { return pages_.size(); }
    std::size_t sharedPageCount() const;
    /** Heap bytes of the overlay at its capacity (row data and ids). */
    std::size_t overlayBytes() const;
    /** Heap bytes beside the pages: the PageRef index plus
     *  overlayBytes(). */
    std::size_t heapBytes() const;
    /** Solely-owned pages plus heapBytes() (PagedVector's contract). */
    std::size_t privateBytes() const;

  private:
    /** The overlay grows by an eighth, but by at least this many
     *  rows, not by doubling: it is priced at its capacity. */
    static constexpr std::size_t kOverlayMinGrowthRows = 4;

    const Real *rowPtr(Index r) const
    {
        CTA_REQUIRE(r >= 0 && r < rows_, "row ", r, " out of range [0, ",
                    rows_, ")");
        if (!overlayIds_.empty())
            if (const Real *hit = overlayRow(r))
                return hit;
        return pageRow(r);
    }

    /** Row @p r's slot in its page (ignores the overlay; @p r must
     *  lie on a page). */
    Real *pageRow(Index r) const
    {
        const std::size_t offset =
            static_cast<std::size_t>(r % rowsPerPage_) *
            static_cast<std::size_t>(cols_) * sizeof(Real);
        return reinterpret_cast<Real *>(
            pages_[static_cast<std::size_t>(r / rowsPerPage_)].data +
            offset);
    }

    /** Row @p r's overlay copy, or null when it has none. */
    Real *overlayRow(Index r) const;
    /** Adds row @p r to the overlay, initialised from @p init (zeros
     *  when null); returns its storage. */
    Real *addOverlayRow(Index r, const Real *init);
    /** Empties the overlay and frees its capacity. */
    void dropOverlay();
    void ensureWritable(std::size_t page_idx);

    std::shared_ptr<PageArena> arena_;
    Index cols_;
    Index rowsPerPage_;
    std::vector<PageRef> pages_;
    Index rows_ = 0;
    /** Overlay rows: ids ascending, each with its slot in the data
     *  (slots are handed out in arrival order, so adding a row never
     *  reorders the rows already there). */
    std::vector<Index> overlayIds_;
    std::vector<std::uint32_t> overlaySlots_;
    std::vector<Real> overlayData_;
};

} // namespace cta::core
