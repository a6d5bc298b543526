/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected) — the integrity check
 * appended to every serialized session snapshot (CTAS blobs).
 * Computed slicing-by-8: eight table lookups fold in each 8-byte
 * block (unaligned input is fine), with a bytewise tail — the same
 * value as the one-lookup-per-byte loop at about a fifth of its cost.
 *
 * A 32-bit CRC detects every single-bit and single-byte error, every
 * burst up to 32 bits, and misses a random multi-byte corruption with
 * probability 2^-32 — sufficient for the snapshot blobs, whose threat
 * model is storage bit rot / truncation, not an adversary.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace cta::core {

/**
 * CRC-32 of @p size bytes at @p data, continuing from @p seed (pass
 * the default for a fresh checksum; feed a previous result to chain
 * over split buffers).
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

} // namespace cta::core
