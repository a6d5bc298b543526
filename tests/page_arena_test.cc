/**
 * @file
 * Tests for the page arena (core/page_arena.h): refcounted pages,
 * copy-on-write privatisation, zero-fill on reuse, and the exact
 * byte-accounting contract (solely-owned pages are private, shared
 * pages priced once by the arena) for PagedVector and PagedRows.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/page_arena.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::PageArena;
using cta::core::PagedRows;
using cta::core::PagedVector;
using cta::core::PageRef;
using cta::core::Real;

TEST(PageArenaTest, AllocateReleaseAndAccounting)
{
    PageArena arena(256);
    EXPECT_EQ(arena.pageBytes(), 256u);
    EXPECT_EQ(arena.livePages(), 0u);

    PageRef a = arena.allocate();
    PageRef b = arena.allocate();
    EXPECT_EQ(arena.livePages(), 2u);
    EXPECT_EQ(arena.liveBytes(), 512u);
    EXPECT_EQ(arena.sharedPages(), 0u);
    EXPECT_TRUE(a.solelyOwned());

    arena.addRef(a);
    EXPECT_FALSE(a.solelyOwned());
    EXPECT_EQ(arena.sharedPages(), 1u);
    EXPECT_EQ(arena.sharedBytes(), 256u);

    arena.release(a); // back to one owner
    EXPECT_TRUE(a.solelyOwned());
    EXPECT_EQ(arena.sharedPages(), 0u);
    EXPECT_EQ(arena.livePages(), 2u);

    arena.release(a);
    arena.release(b);
    EXPECT_EQ(arena.livePages(), 0u);
    EXPECT_EQ(arena.liveBytes(), 0u);
}

TEST(PageArenaTest, PagesAreZeroFilledEvenAfterReuse)
{
    PageArena arena(128);
    PageRef dirty = arena.allocate();
    std::memset(dirty.data, 0xAB, 128);
    arena.release(dirty); // page goes to the free list dirty

    // Reuse must come back all-zero: restored state depends on it
    // being bit-identical to a fresh allocation.
    PageRef fresh = arena.allocate();
    for (std::size_t i = 0; i < 128; ++i)
        EXPECT_EQ(std::to_integer<int>(fresh.data[i]), 0) << i;
    arena.release(fresh);
}

TEST(PageArenaTest, MakeWritableCopiesOnlyWhenShared)
{
    PageArena arena(64);
    PageRef page = arena.allocate();
    std::memset(page.data, 0x5A, 64);

    // Sole owner: no copy, same page back.
    const PageRef same = arena.makeWritable(page);
    EXPECT_EQ(same.id, page.id);
    EXPECT_EQ(arena.cowCopies(), 0u);

    // Shared: the writer gets a private copy with identical bytes;
    // the other owner keeps the original.
    arena.addRef(page);
    PageRef copy = arena.makeWritable(page);
    EXPECT_NE(copy.id, page.id);
    EXPECT_EQ(arena.cowCopies(), 1u);
    EXPECT_TRUE(copy.solelyOwned());
    EXPECT_TRUE(page.solelyOwned());
    EXPECT_EQ(std::memcmp(copy.data, page.data, 64), 0);

    // Diverge the copy; the original is untouched.
    copy.data[0] = std::byte{0x00};
    EXPECT_EQ(std::to_integer<int>(page.data[0]), 0x5A);

    arena.release(copy);
    arena.release(page);
    EXPECT_EQ(arena.livePages(), 0u);
}

TEST(PagedVectorTest, CopySharesPagesAndWritesPrivatise)
{
    auto arena = std::make_shared<PageArena>(64); // 8 int64 per page
    PagedVector<std::int64_t> v(arena);
    for (std::int64_t i = 0; i < 20; ++i)
        v.push_back(i);
    ASSERT_EQ(v.pageCount(), 3u);
    EXPECT_EQ(v.sharedPageCount(), 0u);

    PagedVector<std::int64_t> copy(v);
    EXPECT_EQ(copy.size(), 20u);
    EXPECT_EQ(v.sharedPageCount(), 3u);
    EXPECT_EQ(arena->sharedPages(), 3u);
    // Shared pages are not private bytes; the index still is.
    EXPECT_LT(copy.privateBytes(), 3 * 64u);

    // A single write privatises exactly one page.
    copy.set(0, -7);
    EXPECT_EQ(copy[0], -7);
    EXPECT_EQ(v[0], 0); // CoW: original untouched
    EXPECT_EQ(v.sharedPageCount(), 2u);
    EXPECT_EQ(arena->cowCopies(), 1u);

    // Appending into a shared tail page privatises it too.
    PagedVector<std::int64_t> tail(v);
    tail.push_back(99);
    EXPECT_EQ(tail[20], 99);
    EXPECT_EQ(v.size(), 20u);
    for (std::int64_t i = 1; i < 20; ++i)
        EXPECT_EQ(v[i], i) << i;
}

TEST(PagedRowsTest, RowsRoundTripAndCopyOnWrite)
{
    auto arena = std::make_shared<PageArena>(64); // 2 rows of 8 floats
    PagedRows rows(arena, 8);
    for (Index r = 0; r < 5; ++r) {
        std::vector<Real> row(8, static_cast<Real>(r));
        rows.appendRow(row);
    }
    ASSERT_EQ(rows.rows(), 5);
    ASSERT_EQ(rows.pageCount(), 3u);
    EXPECT_EQ(rows.row(3)[0], 3.0f);

    const Matrix dense = rows.toMatrix();
    ASSERT_EQ(dense.rows(), 5);
    for (Index r = 0; r < 5; ++r)
        EXPECT_EQ(dense(r, 7), static_cast<Real>(r));

    PagedRows fork(rows);
    EXPECT_EQ(arena->sharedPages(), 3u);
    fork.writableRow(0)[0] = -1.0f;
    EXPECT_EQ(fork.row(0)[0], -1.0f);
    EXPECT_EQ(rows.row(0)[0], 0.0f); // original intact
    // Row-granular CoW: the write copied one row into the fork's
    // overlay, not the page.
    EXPECT_EQ(rows.sharedPageCount(), 3u);
    EXPECT_EQ(arena->cowCopies(), 0u);
    ASSERT_EQ(fork.overlayRows().size(), 1u);
    EXPECT_EQ(fork.overlayRows()[0], 0);

    // appendZeroRow really appends zeros, here into the shared tail
    // page's free slot, so into the overlay.
    fork.appendZeroRow();
    EXPECT_EQ(fork.rows(), 6);
    for (Index c = 0; c < 8; ++c)
        EXPECT_EQ(fork.row(5)[c], 0.0f) << c;
    EXPECT_EQ(fork.overlayRows().size(), 2u);
    EXPECT_EQ(fork.pageCount(), 3u);
    EXPECT_EQ(rows.rows(), 5);
}

/** Rows of @p cols floats, row r filled with r + 0.5. */
PagedRows
filledRows(const std::shared_ptr<PageArena> &arena, Index rows,
           Index cols)
{
    PagedRows out(arena, cols);
    for (Index r = 0; r < rows; ++r)
        out.appendRow(
            std::vector<Real>(static_cast<std::size_t>(cols),
                              static_cast<Real>(r) + 0.5f));
    return out;
}

TEST(PagedRowsTest, WriteOnSharedPageLeavesDonorBitsUnchanged)
{
    auto arena = std::make_shared<PageArena>(128); // 4 rows of 8
    const PagedRows donor = filledRows(arena, 10, 8);
    const Matrix before = donor.toMatrix();
    PagedRows child(donor);
    for (const Index r : {Index{7}, Index{1}, Index{4}, Index{1}})
        for (Real &v : child.writableRow(r))
            v = -static_cast<Real>(r);
    child.appendRow(std::vector<Real>(8, 42.0f)); // shared tail slot
    child.appendRow(std::vector<Real>(8, 43.0f));
    child.appendRow(std::vector<Real>(8, 44.0f)); // past the last page

    const Matrix after = donor.toMatrix();
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          static_cast<std::size_t>(before.size()) *
                              sizeof(Real)),
              0);
    EXPECT_EQ(donor.overlayRows().size(), 0u);
    EXPECT_EQ(arena->cowCopies(), 0u);
    // Rows 1, 4, 7 written; rows 10 and 11 appended into the shared
    // tail page; row 12 appended past the last page, and the overlay
    // already holds rows, so no page was opened for it.
    const std::vector<Index> want = {1, 4, 7, 10, 11, 12};
    EXPECT_EQ(child.pageCount(), 3u);
    EXPECT_EQ(std::vector<Index>(child.overlayRows().begin(),
                                 child.overlayRows().end()),
              want);
    EXPECT_EQ(child.row(4)[3], -4.0f);
    EXPECT_EQ(child.row(5)[3], 5.5f);
    EXPECT_EQ(child.row(11)[0], 43.0f);
    EXPECT_EQ(child.row(12)[7], 44.0f);

    // Folding writes the overlay into privatised pages, unchanged.
    const Matrix child_before = child.toMatrix();
    child.foldOverlay();
    EXPECT_EQ(child.overlayRows().size(), 0u);
    EXPECT_EQ(child.overlayBytes(), 0u);
    const Matrix child_after = child.toMatrix();
    EXPECT_EQ(std::memcmp(child_before.data(), child_after.data(),
                          static_cast<std::size_t>(child_before.size()) *
                              sizeof(Real)),
              0);
    const Matrix donor_after = donor.toMatrix();
    EXPECT_EQ(std::memcmp(before.data(), donor_after.data(),
                          static_cast<std::size_t>(before.size()) *
                              sizeof(Real)),
              0);
}

TEST(PagedRowsTest, SolelyOwnedPagesAreWrittenInPlace)
{
    auto arena = std::make_shared<PageArena>(128);
    PagedRows rows = filledRows(arena, 9, 8);
    for (Index r = 0; r < 9; ++r)
        rows.writableRow(r)[0] += 1.0f;
    rows.appendZeroRow();
    EXPECT_EQ(rows.overlayRows().size(), 0u);
    EXPECT_EQ(rows.overlayBytes(), 0u);

    // Once the copy is gone its pages are solely owned again: writes
    // land in place, while the overlay rows made meanwhile stay.
    {
        const PagedRows copy(rows);
        rows.writableRow(2)[1] = 9.0f;
        EXPECT_EQ(rows.overlayRows().size(), 1u);
        EXPECT_EQ(copy.row(2)[1], 2.5f);
    }
    rows.writableRow(6)[1] = 8.0f;
    rows.writableRow(2)[2] = 7.0f;
    EXPECT_EQ(rows.overlayRows().size(), 1u);
    EXPECT_EQ(rows.row(2)[1], 9.0f);
    EXPECT_EQ(rows.row(2)[2], 7.0f);
    EXPECT_EQ(rows.row(6)[1], 8.0f);
}

TEST(PagedRowsTest, PrivateBytesAreOwnedPagesPlusOverlayCapacity)
{
    auto arena = std::make_shared<PageArena>(128);
    const PagedRows donor = filledRows(arena, 8, 8); // 2 full pages
    PagedRows child(donor);
    const std::size_t index_only = child.privateBytes();
    EXPECT_LT(index_only, 128u);
    for (Index r = 0; r < 6; ++r) {
        child.writableRow(r)[0] = 0;
        EXPECT_EQ(child.privateBytes(), index_only + child.overlayBytes())
            << r;
        // Capacity follows the rows in small chunks, never below them.
        const std::size_t row_bytes = 8 * sizeof(Real);
        EXPECT_GE(child.overlayBytes(),
                  static_cast<std::size_t>(r + 1) * row_bytes);
        EXPECT_LE(child.overlayBytes(),
                  static_cast<std::size_t>(r + 5) *
                      (row_bytes + sizeof(Index) + sizeof(std::uint32_t)));
    }
    // A copy prices its own copy of the overlay, no shared page.
    const PagedRows grandchild(child);
    EXPECT_EQ(grandchild.overlayRows().size(), 6u);
    EXPECT_LT(grandchild.privateBytes(),
              grandchild.overlayBytes() + 128);

    // A copy with no overlay opens a page of its own for a row past
    // its last page, and prices exactly that page plus its index.
    PagedRows appender(donor);
    const std::size_t shared_only = appender.privateBytes();
    appender.appendZeroRow();
    EXPECT_EQ(appender.overlayRows().size(), 0u);
    EXPECT_EQ(appender.pageCount(), 3u);
    EXPECT_GE(appender.privateBytes(), shared_only + 128);
    EXPECT_LE(appender.privateBytes(),
              shared_only + 128 + 4 * sizeof(cta::core::PageRef));
}

TEST(PagedRowsTest, RowPointersMatchRowsThroughTheOverlay)
{
    auto arena = std::make_shared<PageArena>(128);
    const PagedRows donor = filledRows(arena, 11, 8);
    PagedRows child(donor);
    for (const Index r : {Index{10}, Index{0}, Index{5}})
        child.writableRow(r)[2] = -1.0f;
    child.appendZeroRow();
    child.appendRow(std::vector<Real>(8, 3.0f));
    std::vector<const Real *> ptrs = {nullptr}; // appended after this
    child.appendRowPointers(ptrs);
    ASSERT_EQ(ptrs.size(), static_cast<std::size_t>(child.rows()) + 1);
    EXPECT_EQ(ptrs[0], nullptr);
    for (Index r = 0; r < child.rows(); ++r)
        EXPECT_EQ(ptrs[static_cast<std::size_t>(r) + 1],
                  child.row(r).data())
            << r;
}

TEST(PagedRowsTest, PrivateBytesTrackSoleOwnership)
{
    auto arena = std::make_shared<PageArena>(64);
    PagedRows rows(arena, 8);
    for (Index r = 0; r < 4; ++r)
        rows.appendZeroRow();
    const std::size_t alone = rows.privateBytes();
    EXPECT_GE(alone, 2 * 64u); // both pages solely owned

    {
        const PagedRows copy(rows);
        // Fully shared: neither side owns a page privately (only the
        // PageRef indexes remain private), and the arena prices every
        // live byte exactly once as shared.
        EXPECT_EQ(rows.sharedPageCount(), 2u);
        EXPECT_EQ(arena->sharedBytes(), arena->liveBytes());
        EXPECT_LT(rows.privateBytes(), 64u);
        EXPECT_LT(copy.privateBytes(), 64u);
    }
    // Copy destroyed: pages return to sole ownership at full price.
    EXPECT_EQ(rows.privateBytes(), alone);
    EXPECT_EQ(arena->sharedPages(), 0u);
}

} // namespace
