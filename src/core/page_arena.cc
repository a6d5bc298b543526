#include "core/page_arena.h"

#include <algorithm>

#include "core/env.h"

namespace cta::core {

PageArena::PageArena(std::size_t page_bytes) : pageBytes_(page_bytes)
{
    CTA_REQUIRE(page_bytes >= sizeof(Real),
                "page size must hold at least one element, got ",
                page_bytes);
}

std::size_t
PageArena::pageBytesFromEnv()
{
    const auto parsed = envBytes("CTA_PAGE_BYTES");
    return parsed ? *parsed : kDefaultPageBytes;
}

PageRef
PageArena::allocateLocked(bool zero)
{
    std::uint32_t id;
    if (!freeList_.empty()) {
        id = freeList_.back();
        freeList_.pop_back();
    } else {
        id = static_cast<std::uint32_t>(allocatedSlots_);
        if (id / kPagesPerSegment == segments_.size())
            segments_.push_back(std::make_unique<Segment>());
        ++allocatedSlots_;
    }
    Page &p = page(id);
    if (!p.data)
        p.data = std::make_unique<std::byte[]>(pageBytes_);
    // Zero on every allocation — including free-list reuse — so
    // buffer contents depend only on writes, never on history. A
    // copy-on-write page skips it: the copy overwrites every byte.
    if (zero)
        std::memset(p.data.get(), 0, pageBytes_);
    p.refs.store(1, std::memory_order_release);
    ++livePages_;
    ++allocated_;
    return PageRef{id, p.data.get(), &p.refs};
}

PageRef
PageArena::allocate()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return allocateLocked(true);
}

void
PageArena::addRef(const PageRef &ref)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t before =
        ref.refs->fetch_add(1, std::memory_order_acq_rel);
    CTA_REQUIRE(before > 0, "addRef on a freed page ", ref.id);
    if (before == 1)
        ++sharedPages_;
}

void
PageArena::addRefs(std::span<const PageRef> refs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const PageRef &ref : refs) {
        const std::uint32_t before =
            ref.refs->fetch_add(1, std::memory_order_acq_rel);
        CTA_REQUIRE(before > 0, "addRef on a freed page ", ref.id);
        if (before == 1)
            ++sharedPages_;
    }
}

void
PageArena::releaseLocked(const PageRef &ref)
{
    const std::uint32_t before =
        ref.refs->fetch_sub(1, std::memory_order_acq_rel);
    CTA_REQUIRE(before > 0, "release on a freed page ", ref.id);
    if (before == 2)
        --sharedPages_;
    if (before == 1) {
        --livePages_;
        freeList_.push_back(ref.id);
    }
}

void
PageArena::release(const PageRef &ref)
{
    std::lock_guard<std::mutex> lock(mutex_);
    releaseLocked(ref);
}

void
PageArena::releaseAll(std::span<const PageRef> refs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const PageRef &ref : refs)
        releaseLocked(ref);
}

PageRef
PageArena::makeWritable(const PageRef &ref)
{
    if (ref.solelyOwned())
        return ref;
    std::lock_guard<std::mutex> lock(mutex_);
    // Re-check under the lock: the other owner may have released its
    // reference between the check above and acquiring the mutex.
    if (ref.refs->load(std::memory_order_acquire) == 1)
        return ref;
    PageRef fresh = allocateLocked(false);
    std::memcpy(fresh.data, ref.data, pageBytes_);
    releaseLocked(ref);
    ++cowCopies_;
    return fresh;
}

std::size_t
PageArena::livePages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return livePages_;
}

std::size_t
PageArena::liveBytes() const
{
    return livePages() * pageBytes_;
}

std::size_t
PageArena::sharedPages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sharedPages_;
}

std::size_t
PageArena::sharedBytes() const
{
    return sharedPages() * pageBytes_;
}

std::uint64_t
PageArena::cowCopies() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cowCopies_;
}

std::uint64_t
PageArena::allocated() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return allocated_;
}

PagedRows::PagedRows(std::shared_ptr<PageArena> arena, Index cols)
    : arena_(std::move(arena)), cols_(cols)
{
    CTA_REQUIRE(cols > 0, "paged rows need a positive column count, "
                "got ", cols);
    rowsPerPage_ = static_cast<Index>(
        arena_->pageBytes() /
        (static_cast<std::size_t>(cols) * sizeof(Real)));
    CTA_REQUIRE(rowsPerPage_ > 0, "page size ", arena_->pageBytes(),
                " too small for a ", cols, "-column row");
}

PagedRows::PagedRows(const PagedRows &other)
    : arena_(other.arena_),
      cols_(other.cols_),
      rowsPerPage_(other.rowsPerPage_),
      pages_(other.pages_),
      rows_(other.rows_),
      overlayIds_(other.overlayIds_),
      overlaySlots_(other.overlaySlots_),
      overlayData_(other.overlayData_)
{
    arena_->addRefs(pages_);
}

PagedRows &
PagedRows::operator=(const PagedRows &other)
{
    if (this == &other)
        return *this;
    other.arena_->addRefs(other.pages_);
    arena_->releaseAll(pages_);
    arena_ = other.arena_;
    cols_ = other.cols_;
    rowsPerPage_ = other.rowsPerPage_;
    pages_ = other.pages_;
    rows_ = other.rows_;
    // Fresh vectors sized to the source, so a replaced overlay's
    // capacity is not kept (it would be priced).
    overlayIds_ = std::vector<Index>(other.overlayIds_);
    overlaySlots_ = std::vector<std::uint32_t>(other.overlaySlots_);
    overlayData_ = std::vector<Real>(other.overlayData_);
    return *this;
}

PagedRows::PagedRows(PagedRows &&other) noexcept
    : arena_(std::move(other.arena_)),
      cols_(other.cols_),
      rowsPerPage_(other.rowsPerPage_),
      pages_(std::move(other.pages_)),
      rows_(other.rows_),
      overlayIds_(std::move(other.overlayIds_)),
      overlaySlots_(std::move(other.overlaySlots_)),
      overlayData_(std::move(other.overlayData_))
{
    other.pages_.clear();
    other.rows_ = 0;
}

PagedRows &
PagedRows::operator=(PagedRows &&other) noexcept
{
    if (this == &other)
        return *this;
    if (arena_)
        arena_->releaseAll(pages_);
    arena_ = std::move(other.arena_);
    cols_ = other.cols_;
    rowsPerPage_ = other.rowsPerPage_;
    pages_ = std::move(other.pages_);
    rows_ = other.rows_;
    overlayIds_ = std::move(other.overlayIds_);
    overlaySlots_ = std::move(other.overlaySlots_);
    overlayData_ = std::move(other.overlayData_);
    other.pages_.clear();
    other.rows_ = 0;
    return *this;
}

PagedRows::~PagedRows()
{
    if (arena_)
        arena_->releaseAll(pages_);
}

Real *
PagedRows::overlayRow(Index r) const
{
    const auto it =
        std::lower_bound(overlayIds_.begin(), overlayIds_.end(), r);
    if (it == overlayIds_.end() || *it != r)
        return nullptr;
    const std::size_t slot =
        overlaySlots_[static_cast<std::size_t>(it - overlayIds_.begin())];
    return const_cast<Real *>(overlayData_.data()) +
           slot * static_cast<std::size_t>(cols_);
}

Real *
PagedRows::addOverlayRow(Index r, const Real *init)
{
    const auto cols = static_cast<std::size_t>(cols_);
    const std::size_t slot = overlaySlots_.size();
    if (overlayData_.size() == overlayData_.capacity()) {
        // Grow by an eighth, at least a few rows (reserve allocates
        // exactly what it is asked for): the priced capacity stays
        // close to the rows, and copying stays amortised O(1) a row.
        const std::size_t rows =
            slot + std::max(kOverlayMinGrowthRows, slot / 8);
        overlayData_.reserve(rows * cols);
        overlayIds_.reserve(rows);
        overlaySlots_.reserve(rows);
    }
    overlayData_.resize((slot + 1) * cols);
    Real *dst = overlayData_.data() + slot * cols;
    if (init)
        std::memcpy(dst, init, cols * sizeof(Real));
    const auto at =
        std::lower_bound(overlayIds_.begin(), overlayIds_.end(), r);
    const auto pos = at - overlayIds_.begin();
    overlayIds_.insert(at, r);
    overlaySlots_.insert(overlaySlots_.begin() + pos,
                         static_cast<std::uint32_t>(slot));
    return dst;
}

void
PagedRows::appendRowPointers(std::vector<const Real *> &out) const
{
    const std::size_t first = out.size();
    const std::size_t row_bytes =
        static_cast<std::size_t>(cols_) * sizeof(Real);
    Index left = rows_;
    for (const PageRef &page : pages_) {
        const Index in_page = std::min(left, rowsPerPage_);
        for (Index r = 0; r < in_page; ++r)
            out.push_back(reinterpret_cast<const Real *>(
                page.data + static_cast<std::size_t>(r) * row_bytes));
        left -= in_page;
    }
    // Rows past the last page live only in the overlay.
    out.resize(first + static_cast<std::size_t>(rows_));
    for (std::size_t i = 0; i < overlayIds_.size(); ++i)
        out[first + static_cast<std::size_t>(overlayIds_[i])] =
            overlayData_.data() +
            overlaySlots_[i] * static_cast<std::size_t>(cols_);
}

void
PagedRows::ensureWritable(std::size_t page_idx)
{
    PageRef &ref = pages_[page_idx];
    if (!ref.solelyOwned())
        ref = arena_->makeWritable(ref);
}

std::span<Real>
PagedRows::writableRow(Index r)
{
    CTA_REQUIRE(r >= 0 && r < rows_, "row ", r, " out of range [0, ",
                rows_, ")");
    const auto cols = static_cast<std::size_t>(cols_);
    if (!overlayIds_.empty())
        if (Real *hit = overlayRow(r))
            return {hit, cols};
    // Not in the overlay, so the row lies on a page.
    Real *in_page = pageRow(r);
    if (pages_[static_cast<std::size_t>(r / rowsPerPage_)].solelyOwned())
        return {in_page, cols};
    return {addOverlayRow(r, in_page), cols};
}

void
PagedRows::appendRow(std::span<const Real> values)
{
    CTA_REQUIRE(static_cast<Index>(values.size()) == cols_,
                "row length ", values.size(), " != ", cols_);
    appendZeroRow();
    std::memcpy(writableRow(rows_ - 1).data(), values.data(),
                static_cast<std::size_t>(cols_) * sizeof(Real));
}

void
PagedRows::appendZeroRow()
{
    const bool tail_full =
        rows_ >= static_cast<Index>(pages_.size()) * rowsPerPage_;
    ++rows_;
    // A buffer that already keeps private rows in its overlay (a fork)
    // keeps appending there rather than open a page it would mostly
    // leave empty; so does a row whose slot is on a shared tail page.
    if (tail_full ? !overlayIds_.empty() : !pages_.back().solelyOwned()) {
        addOverlayRow(rows_ - 1, nullptr);
        return;
    }
    if (tail_full) {
        pages_.push_back(arena_->allocate()); // zero-filled
        return;
    }
    // Clear the row region explicitly: a page that was shared earlier
    // may carry a donor's bytes beyond this buffer's row count.
    std::memset(pageRow(rows_ - 1), 0,
                static_cast<std::size_t>(cols_) * sizeof(Real));
}

void
PagedRows::dropOverlay()
{
    // Assigning fresh vectors frees the capacity, which is priced.
    overlayIds_ = std::vector<Index>();
    overlaySlots_ = std::vector<std::uint32_t>();
    overlayData_ = std::vector<Real>();
}

void
PagedRows::foldOverlay()
{
    const std::size_t row_bytes =
        static_cast<std::size_t>(cols_) * sizeof(Real);
    while (static_cast<Index>(pages_.size()) * rowsPerPage_ < rows_)
        pages_.push_back(arena_->allocate());
    for (std::size_t i = 0; i < overlayIds_.size(); ++i) {
        const Index r = overlayIds_[i];
        ensureWritable(static_cast<std::size_t>(r / rowsPerPage_));
        std::memcpy(pageRow(r),
                    overlayData_.data() +
                        overlaySlots_[i] * static_cast<std::size_t>(cols_),
                    row_bytes);
    }
    dropOverlay();
}

void
PagedRows::clear()
{
    arena_->releaseAll(pages_);
    pages_.clear();
    rows_ = 0;
    dropOverlay();
}

Matrix
PagedRows::toMatrix() const
{
    Matrix out(rows_, cols_);
    for (Index r = 0; r < rows_; ++r) {
        const std::span<const Real> src = row(r);
        std::memcpy(out.row(r).data(), src.data(),
                    static_cast<std::size_t>(cols_) * sizeof(Real));
    }
    return out;
}

std::size_t
PagedRows::sharedPageCount() const
{
    std::size_t shared = 0;
    for (const PageRef &ref : pages_)
        shared += ref.solelyOwned() ? 0 : 1;
    return shared;
}

std::size_t
PagedRows::overlayBytes() const
{
    return overlayData_.capacity() * sizeof(Real) +
           overlayIds_.capacity() * sizeof(Index) +
           overlaySlots_.capacity() * sizeof(std::uint32_t);
}

std::size_t
PagedRows::heapBytes() const
{
    return pages_.capacity() * sizeof(PageRef) + overlayBytes();
}

std::size_t
PagedRows::privateBytes() const
{
    std::size_t bytes = heapBytes();
    for (const PageRef &ref : pages_)
        if (ref.solelyOwned())
            bytes += arena_->pageBytes();
    return bytes;
}

} // namespace cta::core
