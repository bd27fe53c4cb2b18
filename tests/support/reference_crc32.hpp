/**
 * @file
 * Reference CRC-32: the IEEE 802.3 reflected polynomial 0xEDB88320
 * applied one bit at a time, straight from its definition. No tables
 * and no folding constants, so nothing in it is shared with
 * chaos::net::crc32, whose table and carry-less-multiply paths the
 * tests compare against it.
 */
#ifndef CHAOS_TESTS_SUPPORT_REFERENCE_CRC32_HPP
#define CHAOS_TESTS_SUPPORT_REFERENCE_CRC32_HPP

#include <cstddef>
#include <cstdint>

namespace chaos {
namespace testing_support {

/**
 * CRC-32 of @p data, seedable like chaos::net::crc32: a @p seed that
 * is the CRC of a prefix continues that prefix.
 */
inline std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t size,
               std::uint32_t seed = 0)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

} // namespace testing_support
} // namespace chaos

#endif // CHAOS_TESTS_SUPPORT_REFERENCE_CRC32_HPP
