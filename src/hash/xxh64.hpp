// XXH64 implemented from scratch from the published xxHash specification
// (XXH64 algorithm description, spec v0.1.x). A fast 64-bit
// non-cryptographic checksum: the data plane uses it to catch corruption
// in flight and on disk (peer attestation, receive check, cache memo),
// where MD5's cost bought nothing a checksum does not. It guards against
// accidents, not adversaries; content *names* stay MD5 (hash/md5.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace vine {

/// Incremental XXH64 hasher.
class Xxh64 {
 public:
  explicit Xxh64(std::uint64_t seed = 0) { reset(seed); }

  /// Reset to the initial state for `seed` so the object can be reused.
  void reset(std::uint64_t seed = 0);

  /// Absorb more input bytes.
  void update(std::span<const std::byte> data);
  void update(std::string_view data) {
    update(std::as_bytes(std::span(data.data(), data.size())));
  }

  /// The checksum of everything absorbed so far. Does not alter the state:
  /// more input may follow.
  std::uint64_t digest() const;

  /// One-shot convenience: XXH64 of a buffer.
  static std::uint64_t hash(std::string_view data, std::uint64_t seed = 0);

 private:
  std::uint64_t acc_[4];
  std::uint64_t seed_;
  std::uint64_t total_bytes_;
  std::uint8_t buffer_[32];
  std::size_t buffered_;
};

}  // namespace vine
