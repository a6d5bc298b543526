/**
 * @file
 * Fuzz-lite integrity tests for the CTAS session-snapshot blob: a
 * clean round trip, then every single-byte flip and every truncation
 * of a real blob must be *detected* by tryDeserializeSnapshot() — it
 * may only report success when the decoded state is bit-identical to
 * the original, never silently succeed with wrong state. Also covers
 * the forged-checksum path (valid CRC over a structurally bad
 * payload) and the fatal deserializeSnapshot() contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/crc32.h"
#include "core/rng.h"
#include "nn/workload.h"
#include "serve/decode_session.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Rng;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;
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
