#include "core/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace cta::core {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables of the reflected CRC-32 (polynomial
 * 0xEDB88320). Table 0 is the classic bytewise table; table k maps a
 * byte to its CRC contribution k positions further from the end of
 * an 8-byte block, so one block folds in with eight independent
 * lookups instead of eight dependent ones.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr Tables kTables = makeTables();

/** Little-endian 32-bit load from possibly unaligned @p p. */
std::uint32_t
loadLe32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(bytes) ^ c;
        const std::uint32_t hi = loadLe32(bytes + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace cta::core
