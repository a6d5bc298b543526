/**
 * @file
 * Fuzz-lite integrity tests for the CTAS session-snapshot blob: a
 * clean round trip, then every single-byte flip and every truncation
 * of a real blob must be *detected* by tryDeserializeSnapshot() — it
 * may only report success when the decoded state is bit-identical to
 * the original, never silently succeed with wrong state. Also covers
 * the forged-checksum path (valid CRC over a structurally bad
 * payload, or over a delta that does not fit its base — refused by
 * DecodeSession::canRestore and quarantined by SessionManager), the
 * fatal deserializeSnapshot() contract, exact blob sizing, and the
 * CRC-32 itself against a bytewise reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/rng.h"
#include "nn/workload.h"
#include "serve/decode_session.h"
#include "serve/session_manager.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Rng;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;
using cta::serve::SessionExport;
using cta::serve::SessionManager;
using cta::serve::SessionSnapshot;

constexpr Index kDim = 16;
constexpr Index kHeadDim = 8;

Matrix
sampleTokens(Index n, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = kDim;
    profile.coarseClusters = 4;
    profile.fineClusters = 3;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

cta::nn::AttentionHeadParams
headParams()
{
    Rng rng(3);
    return cta::nn::AttentionHeadParams::randomInit(kDim, kHeadDim, rng);
}

/** A small but real snapshot (non-trivial cluster state). */
SessionSnapshot
sampleSnapshot()
{
    DecodeSession session(headParams(), ServeConfig{}, kDim);
    session.prefill(sampleTokens(6, 77));
    return session.snapshot();
}

/** sampleSnapshot() as a blob. */
std::vector<std::uint8_t>
sampleBlob()
{
    return cta::serve::serializeSnapshot(sampleSnapshot());
}

/** sampleSnapshot() with one level-2 table entry more than level 1. */
SessionSnapshot
unevenSnapshot()
{
    SessionSnapshot snap = sampleSnapshot();
    snap.kv.level2.tableSuffix.push_back(
        snap.kv.level2.tableSuffix.back());
    return snap;
}

/** Rewrites the CRC-32 trailer so the checksum matches the (possibly
 *  tampered-with) payload — the forged-checksum attack surface. */
void
forgeCrc(std::vector<std::uint8_t> &blob)
{
    ASSERT_GE(blob.size(), 4u);
    const std::uint32_t crc =
        cta::core::crc32(blob.data(), blob.size() - 4);
    std::memcpy(blob.data() + blob.size() - 4, &crc, sizeof(crc));
}

/** The plain one-lookup-per-byte CRC-32 (reflected 0xEDB88320). */
std::uint32_t
bytewiseCrc32(const std::uint8_t *data, std::size_t size,
              std::uint32_t seed = 0)
{
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        table[i] = c;
    }
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    return bytes;
}

TEST(Crc32Test, KnownAnswer)
{
    const char *check = "123456789";
    EXPECT_EQ(cta::core::crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(cta::core::crc32(check, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    // Lengths 0-70 cover the bytewise tail alone, whole 8-byte blocks
    // and every block + tail mix; offsets 0-7 every misalignment.
    const auto bytes = randomBytes(80, 5);
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 70; ++len)
            EXPECT_EQ(cta::core::crc32(bytes.data() + offset, len),
                      bytewiseCrc32(bytes.data() + offset, len))
                << "offset " << offset << " length " << len;
}

TEST(Crc32Test, ChainedSeedsMatchOnePass)
{
    const auto bytes = randomBytes(200, 6);
    const std::uint32_t whole = bytewiseCrc32(bytes.data(), bytes.size());
    for (const std::size_t cut : {0u, 1u, 7u, 8u, 13u, 64u, 199u, 200u}) {
        const std::uint32_t head = cta::core::crc32(bytes.data(), cut);
        EXPECT_EQ(cta::core::crc32(bytes.data() + cut,
                                   bytes.size() - cut, head),
                  whole)
            << "cut at " << cut;
        // A non-default seed chains the same way in both.
        EXPECT_EQ(cta::core::crc32(bytes.data() + cut,
                                   bytes.size() - cut, 0x12345678u),
                  bytewiseCrc32(bytes.data() + cut, bytes.size() - cut,
                                0x12345678u));
    }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnABlobSizedBuffer)
{
    const auto bytes = randomBytes(28 * 1024 + 3, 7);
    EXPECT_EQ(cta::core::crc32(bytes.data(), bytes.size()),
              bytewiseCrc32(bytes.data(), bytes.size()));
    EXPECT_EQ(cta::core::crc32(bytes.data() + 1, bytes.size() - 1),
              bytewiseCrc32(bytes.data() + 1, bytes.size() - 1));
}

TEST(SnapshotIntegrityTest, CleanBlobRoundTrips)
{
    const auto blob = sampleBlob();
    SessionSnapshot snap;
    std::string error;
    ASSERT_TRUE(cta::serve::tryDeserializeSnapshot(blob, &snap,
                                                   &error))
        << error;
    EXPECT_EQ(snap.tokenDim, kDim);
    // Re-serializing the decoded state reproduces the blob exactly.
    EXPECT_EQ(cta::serve::serializeSnapshot(snap), blob);
    // The fatal variant agrees.
    const SessionSnapshot fatal = cta::serve::deserializeSnapshot(blob);
    EXPECT_EQ(cta::serve::serializeSnapshot(fatal), blob);
}

TEST(SnapshotIntegrityTest, EmptySessionBlobRoundTrips)
{
    Rng rng(4);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(kDim, kHeadDim, rng);
    DecodeSession session(params, ServeConfig{}, kDim);
    const auto blob =
        cta::serve::serializeSnapshot(session.snapshot());
    SessionSnapshot snap;
    ASSERT_TRUE(
        cta::serve::tryDeserializeSnapshot(blob, &snap, nullptr));
    EXPECT_EQ(cta::serve::serializeSnapshot(snap), blob);
}

TEST(SnapshotIntegrityTest, EveryByteFlipIsDetected)
{
    const auto original = sampleBlob();
    // Three masks per offset: low bit, high bit, full byte.
    const std::uint8_t masks[] = {0x01, 0x80, 0xFF};
    for (std::size_t at = 0; at < original.size(); ++at) {
        for (const std::uint8_t mask : masks) {
            std::vector<std::uint8_t> blob = original;
            blob[at] ^= mask;
            SessionSnapshot snap;
            std::string error;
            const bool ok = cta::serve::tryDeserializeSnapshot(
                blob, &snap, &error);
            // A single-byte flip is a burst of at most 8 bits, which
            // the CRC-32 trailer detects unconditionally — including
            // flips of the trailer itself.
            EXPECT_FALSE(ok) << "flip of byte " << at << " (mask 0x"
                             << std::hex << unsigned{mask}
                             << ") went undetected";
            if (!ok) {
                EXPECT_FALSE(error.empty()) << "byte " << at;
            }
        }
    }
}

TEST(SnapshotIntegrityTest, EveryTruncationIsDetected)
{
    const auto original = sampleBlob();
    for (std::size_t len = 0; len < original.size(); ++len) {
        SessionSnapshot snap;
        std::string error;
        EXPECT_FALSE(cta::serve::tryDeserializeSnapshot(
            std::span<const std::uint8_t>(original.data(), len),
            &snap, &error))
            << "truncation to " << len << " bytes went undetected";
    }
    // Trailing garbage is rejected too.
    std::vector<std::uint8_t> extended = original;
    extended.push_back(0x00);
    SessionSnapshot snap;
    EXPECT_FALSE(
        cta::serve::tryDeserializeSnapshot(extended, &snap, nullptr));
}

TEST(SnapshotIntegrityTest, ForgedChecksumStillRejectsBadStructure)
{
    // An unsupported version behind a *valid* CRC must be rejected by
    // the structural layer, not the checksum.
    auto blob = sampleBlob();
    blob[4] = 0x7F; // version lives right after the 4-byte magic
    forgeCrc(blob);
    SessionSnapshot snap;
    std::string error;
    EXPECT_FALSE(
        cta::serve::tryDeserializeSnapshot(blob, &snap, &error));
    EXPECT_FALSE(error.empty());

    // A wildly wrong array length behind a valid CRC exercises the
    // non-throwing BlobReader: it must fail soft, not crash or
    // overread.
    auto lied = sampleBlob();
    // tokenDim (int64) sits at offset 8; make it absurd.
    const std::int64_t absurd = -5;
    std::memcpy(lied.data() + 8, &absurd, sizeof(absurd));
    forgeCrc(lied);
    EXPECT_FALSE(
        cta::serve::tryDeserializeSnapshot(lied, &snap, nullptr));
}

TEST(SnapshotIntegrityTest, ForgedChecksumRejectsLevelsThatDisagree)
{
    // The two levels hold one table entry per token. Levels that
    // start or end at different token counts behind a valid CRC must
    // be refused, not restored into a session whose levels disagree.
    auto blob = cta::serve::serializeSnapshot(unevenSnapshot());
    forgeCrc(blob);
    SessionSnapshot snap;
    std::string error;
    EXPECT_FALSE(
        cta::serve::tryDeserializeSnapshot(blob, &snap, &error));
    EXPECT_NE(error.find("token counts"), std::string::npos) << error;

    // Level 1's baseTokens (int64) follows the 32-byte header.
    auto shifted = sampleBlob();
    const std::int64_t base = 1;
    std::memcpy(shifted.data() + 32, &base, sizeof(base));
    forgeCrc(shifted);
    error.clear();
    EXPECT_FALSE(
        cta::serve::tryDeserializeSnapshot(shifted, &snap, &error));
    EXPECT_NE(error.find("token counts"), std::string::npos) << error;
}

TEST(SnapshotIntegrityTest, BlobIsExactlySized)
{
    // An evicted session is charged its blob's capacity(): a fresh
    // blob carries no growth slack.
    const auto standalone = sampleBlob();
    EXPECT_EQ(standalone.capacity(), standalone.size());

    DecodeSession parent(headParams(), ServeConfig{}, kDim);
    parent.prefill(sampleTokens(24, 90));
    auto child = DecodeSession::forkFrom(parent.sharedPrefix(0));
    const Matrix steps = sampleTokens(5, 91);
    for (Index i = 0; i < steps.rows(); ++i)
        child->step(steps.row(i));
    const auto delta = cta::serve::serializeSnapshot(child->snapshot());
    EXPECT_EQ(delta.capacity(), delta.size());
}

/** Expects @p session to refuse @p snap with an error containing
 *  @p why, and tryRestore() to leave the session as it was. */
void
expectRefused(DecodeSession &session, const SessionSnapshot &snap,
              const std::string &why)
{
    std::string error;
    EXPECT_FALSE(session.canRestore(snap, &error)) << why;
    EXPECT_NE(error.find(why), std::string::npos)
        << "wanted \"" << why << "\", got \"" << error << "\"";
    const auto before =
        cta::serve::serializeSnapshot(session.snapshot());
    EXPECT_FALSE(session.tryRestore(snap, &error)) << why;
    EXPECT_EQ(cta::serve::serializeSnapshot(session.snapshot()), before)
        << why;
}

TEST(SnapshotIntegrityTest, StandaloneDeltaMustFitAnEmptyBase)
{
    // Each of these decodes behind a forged CRC; none may reach the
    // fatal checks inside the restore.
    DecodeSession session(headParams(), ServeConfig{}, kDim);
    session.prefill(sampleTokens(3, 12));
    const SessionSnapshot clean = sampleSnapshot();
    ASSERT_TRUE(session.canRestore(clean, nullptr));
    const Index l = ServeConfig{}.cta.hashLen;
    const Index k1 = static_cast<Index>(clean.kv.level1.members.size());
    ASSERT_GE(k1, 2);

    SessionSnapshot snap = clean;
    snap.kv.level1.baseTokens = snap.kv.level2.baseTokens = 1;
    expectRefused(session, snap, "delta base");

    snap = clean;
    snap.tokenDim = kDim + 1;
    expectRefused(session, snap, "token dim");

    snap = clean;
    snap.kv.level1.codeSuffix.pop_back();
    expectRefused(session, snap, "multiple of hash length");

    snap = clean;
    snap.kv.level2.members.push_back(1);
    expectRefused(session, snap, "member counts");

    snap = clean;
    snap.kv.level1.members[0] = 0;
    expectRefused(session, snap, "no members");

    snap = clean;
    snap.kv.level2.tableSuffix.back() =
        static_cast<Index>(snap.kv.level2.members.size());
    expectRefused(session, snap, "table entry");

    snap = clean;
    snap.kv.level1.divergedRows = {0};
    snap.kv.level1.divergedSums = Matrix(1, kDim);
    expectRefused(session, snap, "outside base");

    snap = clean;
    snap.kv.level1.appendedSums = Matrix(k1, kDim + 1);
    expectRefused(session, snap, "appended sums shape");

    snap = clean;
    std::copy_n(snap.kv.level1.codeSuffix.begin(), l,
                snap.kv.level1.codeSuffix.begin() + l);
    expectRefused(session, snap, "are equal");
}

TEST(SnapshotIntegrityTest, ForkedDeltaMustFitItsDonor)
{
    // One stream, so the child's steps land in the donor's clusters.
    const Matrix tokens = sampleTokens(44, 92);
    DecodeSession parent(headParams(), ServeConfig{}, kDim);
    parent.prefill(tokens.rowSlice(0, 32));
    const auto prefix = parent.sharedPrefix(0);
    auto child = DecodeSession::forkFrom(prefix);
    for (Index i = 32; i < tokens.rows(); ++i)
        child->step(tokens.row(i));
    const SessionSnapshot clean = child->snapshot();
    auto target = DecodeSession::forkFrom(prefix);
    ASSERT_TRUE(target->canRestore(clean, nullptr));
    const auto &l1 = clean.kv.level1;
    ASSERT_GE(l1.divergedRows.size(), 2u);
    ASSERT_GE(l1.codeSuffix.size(), 1u);

    SessionSnapshot snap = clean;
    snap.prefixTokens += 1;
    expectRefused(*target, snap, "fork point");

    snap = clean;
    snap.prefixId = 3;
    expectRefused(*target, snap, "references shared prefix");

    snap = clean;
    snap.kv.level1.baseClusters -= 1;
    expectRefused(*target, snap, "delta base");

    snap = clean;
    std::swap(snap.kv.level1.divergedRows[0],
              snap.kv.level1.divergedRows[1]);
    expectRefused(*target, snap, "out of order");

    // A base row the delta does not list must keep its count.
    snap = clean;
    Index untouched = 0;
    while (std::find(l1.divergedRows.begin(), l1.divergedRows.end(),
                     untouched) != l1.divergedRows.end())
        ++untouched;
    ASSERT_LT(untouched, l1.baseClusters);
    snap.kv.level1.members[static_cast<std::size_t>(untouched)] += 1;
    expectRefused(*target, snap, "unchanged but member counts differ");

    // A fresh code that names a donor cluster would not found a new
    // cluster.
    const SessionSnapshot donor = parent.snapshot();
    snap = clean;
    std::copy_n(donor.kv.level1.codeSuffix.begin(),
                ServeConfig{}.cta.hashLen,
                snap.kv.level1.codeSuffix.begin());
    expectRefused(*target, snap, "already names a base cluster");

    // A standalone session cannot take a forked snapshot.
    DecodeSession standalone(headParams(), ServeConfig{}, kDim);
    expectRefused(standalone, clean, "session is standalone");
}

/** Re-encodes @p exported's blob after @p tamper edits its decoded
 *  snapshot: the result carries a valid (forged) CRC. */
template <typename Tamper>
void
forgeExport(SessionExport &exported, Tamper tamper)
{
    SessionSnapshot snap;
    ASSERT_TRUE(cta::serve::tryDeserializeSnapshot(exported.blob, &snap,
                                                   nullptr));
    tamper(snap);
    exported.blob = cta::serve::serializeSnapshot(snap);
    exported.corruptionInjected = true;
}

TEST(SnapshotIntegrityTest, ForgedCrcDeltaIsQuarantinedNotFatal)
{
    // The standalone snapshot whose levels both claim one base token
    // passes the codec; the manager must quarantine it, count it
    // detected, and leave every other session alone.
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0);
    const Index healthy = manager.createSession(sampleTokens(10, 94));
    const Index victim = manager.createSession(sampleTokens(10, 95));
    SessionExport exported = manager.exportSession(victim);
    forgeExport(exported, [](SessionSnapshot &snap) {
        snap.kv.level1.baseTokens = snap.kv.level2.baseTokens = 1;
    });
    const Index adopted = manager.adoptSession(std::move(exported), -1);
    EXPECT_TRUE(manager.isQuarantined(adopted));
    EXPECT_EQ(manager.tryAcquire(adopted), nullptr);

    // A forked delta that fits its registered fork point but not the
    // donor's clusters gets past adoption and is quarantined at
    // restore instead.
    const Index child = manager.forkSession(healthy);
    const Matrix steps = sampleTokens(4, 96);
    for (Index i = 0; i < steps.rows(); ++i)
        manager.acquire(child).step(steps.row(i));
    SessionExport forked = manager.exportSession(child);
    const std::int64_t prefix = forked.prefixId;
    ASSERT_GE(prefix, 0);
    forgeExport(forked, [](SessionSnapshot &snap) {
        snap.kv.level2.tableSuffix.back() =
            static_cast<Index>(snap.kv.level2.members.size());
    });
    const Index late = manager.adoptSession(std::move(forked), prefix);
    EXPECT_TRUE(manager.isEvicted(late));
    EXPECT_EQ(manager.tryAcquire(late), nullptr);
    EXPECT_TRUE(manager.isQuarantined(late));

    // A forged prefix reference or fork point is refused on arrival.
    for (const int field : {0, 1}) {
        SessionExport lied = manager.exportSession(child);
        forgeExport(lied, [field](SessionSnapshot &snap) {
            if (field == 0)
                snap.prefixId += 1;
            else
                snap.prefixTokens += 1;
        });
        EXPECT_TRUE(manager.isQuarantined(
            manager.adoptSession(std::move(lied), prefix)));
    }

    const auto stats = manager.stats();
    EXPECT_EQ(stats.corruptionsDetected, 4u);
    EXPECT_EQ(stats.corruptionsSilent, 0u);
    EXPECT_EQ(stats.quarantined, 4);
    EXPECT_NE(manager.tryAcquire(healthy), nullptr);
    EXPECT_NE(manager.tryAcquire(child), nullptr);
}

TEST(SnapshotIntegrityTest, LegacyVersionsRejectedWithVersionedError)
{
    // Pre-v3 blobs (flat snapshots without prefix deltas) are no
    // longer decodable. They must be refused with an error that names
    // the stale version — operationally distinct from corruption, so
    // an operator knows to re-snapshot rather than hunt bit rot.
    for (const std::uint8_t legacy : {std::uint8_t{1},
                                      std::uint8_t{2}}) {
        auto blob = sampleBlob();
        blob[4] = legacy; // version lives right after the magic
        forgeCrc(blob);   // valid checksum: this is not corruption
        SessionSnapshot snap;
        std::string error;
        EXPECT_FALSE(
            cta::serve::tryDeserializeSnapshot(blob, &snap, &error));
        EXPECT_NE(error.find("legacy"), std::string::npos) << error;
        EXPECT_NE(error.find(std::to_string(unsigned{legacy})),
                  std::string::npos)
            << error;
    }

    // Future/unknown versions get the generic unsupported message,
    // not the legacy one.
    auto blob = sampleBlob();
    blob[4] = 0x09;
    forgeCrc(blob);
    SessionSnapshot snap;
    std::string error;
    EXPECT_FALSE(
        cta::serve::tryDeserializeSnapshot(blob, &snap, &error));
    EXPECT_EQ(error.find("legacy"), std::string::npos) << error;
    EXPECT_NE(error.find("unsupported"), std::string::npos) << error;
}

TEST(SnapshotIntegrityDeathTest, FatalVariantAbortsOnCorruption)
{
    auto blob = sampleBlob();
    blob[blob.size() / 2] ^= 0xFF;
    EXPECT_DEATH(cta::serve::deserializeSnapshot(blob), "");
}

TEST(SnapshotIntegrityDeathTest, RestoreAbortsOnLevelsThatDisagree)
{
    // A delta handed to restore() without the codec's checks still
    // never restores two levels of different lengths.
    DecodeSession session(headParams(), ServeConfig{}, kDim);
    EXPECT_DEATH(session.restore(unevenSnapshot()),
                 "mismatched token counts");
}

} // namespace
