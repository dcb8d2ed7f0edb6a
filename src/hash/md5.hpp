// MD5 implemented from scratch (RFC 1321). Naming only: TaskVine uses MD5
// to derive content-addressable cache names for files (paper §3.2), and an
// "md5-" object is checked against its name before it is served. It is not
// used for security, nor for the data plane's in-flight integrity checks,
// which use the much cheaper XXH64 (hash/xxh64.hpp). The vpak archive
// format keeps an MD5 trailer of its own.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace vine {

/// Incremental MD5 hasher.
class Md5 {
 public:
  static constexpr std::size_t kDigestSize = 16;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Md5() { reset(); }

  /// Reset to the initial state so the object can be reused.
  void reset();

  /// Absorb more input bytes.
  void update(std::span<const std::byte> data);
  void update(std::string_view data) {
    update(std::as_bytes(std::span(data.data(), data.size())));
  }

  /// Finish and return the 16-byte digest. The hasher must be reset()
  /// before further use.
  Digest finish();

  /// One-shot convenience: MD5 of a buffer as lowercase hex.
  static std::string hex(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[4];
  std::uint64_t total_bytes_;
  std::uint8_t buffer_[64];
  std::size_t buffered_;
};

}  // namespace vine
