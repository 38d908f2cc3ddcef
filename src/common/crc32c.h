// CRC32C (Castagnoli) checksums for on-disk integrity sections.
//
// The durable store (eppi-index-v3 files, the epoch MANIFEST journal) guards
// every section with a CRC32C so that torn writes, bit rot and truncation are
// detected at load time instead of silently corrupting the served index.
// CRC32C is the polynomial used by iSCSI/ext4/LevelDB; we use a portable
// slice-by-4 table implementation — checksum cost is immaterial next to the
// fsyncs on the commit path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace eppi {

// CRC32C of `data`, optionally continuing from a previous checksum: pass the
// prior call's return value as `seed` to checksum a byte stream in chunks.
// crc32c({}) == 0, and crc32c("123456789") == 0xE3069283 (the standard check
// value for the Castagnoli polynomial).
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0) noexcept;

// Masked variant for values stored alongside the data they checksum
// (LevelDB's trick): a CRC of bytes that themselves contain CRCs is weak, so
// stored checksums are masked with a rotation + constant.
std::uint32_t crc32c_mask(std::uint32_t crc) noexcept;
std::uint32_t crc32c_unmask(std::uint32_t masked) noexcept;

}  // namespace eppi
