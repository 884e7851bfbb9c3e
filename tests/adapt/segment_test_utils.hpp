// Byte-level helpers for the segment decoder tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "adapt/telemetry_store.hpp"
#include "common/crc32.hpp"

namespace verihvac::adapt::testing {

/// File offsets of the header's leading u32 fields (after the 4-byte magic).
inline constexpr std::size_t kFormatVersionOffset = 4;
inline constexpr std::size_t kTraceVersionOffset = 8;

/// Overwrites one u32 header field and re-stamps the header CRC, so a
/// reader can refuse the file only for what the field says, never for a
/// checksum mismatch.
inline void restamp_header_u32(const std::string& path, std::size_t offset, std::uint32_t value) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  std::string header(kSegmentHeaderBytes, '\0');
  file.read(header.data(), static_cast<std::streamsize>(header.size()));
  std::memcpy(&header[offset], &value, sizeof value);
  const std::size_t fields = kSegmentHeaderBytes - 4 - sizeof(std::uint32_t);
  const std::uint32_t crc = common::crc32(header.data() + 4, fields);
  std::memcpy(&header[4 + fields], &crc, sizeof crc);
  file.seekp(0);
  file.write(header.data(), static_cast<std::streamsize>(header.size()));
}

}  // namespace verihvac::adapt::testing
