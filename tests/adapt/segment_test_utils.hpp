// Byte-level helpers for the segment decoder and store recovery tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

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

/// Stops `store` the way a crash would: every `.open` tail in its
/// directory is left exactly as the last pump flushed it. The tails are
/// copied aside, stop() seals them, and the copies replace the sealed
/// files. Pump everything first: stop() must have nothing left to drain.
inline void stop_as_crash(TelemetryStore& store) {
  namespace fs = std::filesystem;
  std::vector<std::pair<fs::path, std::string>> tails;
  for (const auto& entry : fs::directory_iterator(store.directory())) {
    if (entry.path().extension() != ".open") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    tails.emplace_back(entry.path(), std::string(std::istreambuf_iterator<char>(in), {}));
  }
  store.stop();
  for (const auto& [path, bytes] : tails) {
    fs::remove(fs::path(path).replace_extension());  // the sealed `.vhtseg`
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }
}

}  // namespace verihvac::adapt::testing
