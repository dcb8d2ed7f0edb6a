#include "hash/xxh64.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace vine {
namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

// The spec reads lanes little-endian; a memcpy load compiles to one mov on
// the little-endian targets this builds for and stays alignment-safe.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t lane) {
  return rotl(acc + lane * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t merge(std::uint64_t acc, std::uint64_t lane_acc) {
  return (acc ^ lane_round(0, lane_acc)) * kPrime1 + kPrime4;
}

/// Absorb every whole 32-byte stripe of [p, p + n) into the four lane
/// accumulators; returns the number of bytes consumed.
std::size_t stripes(std::uint64_t acc[4], const std::uint8_t* p, std::size_t n) {
  std::uint64_t a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  const std::uint8_t* const begin = p;
  for (; n >= 32; n -= 32, p += 32) {
    a0 = lane_round(a0, load_le64(p));
    a1 = lane_round(a1, load_le64(p + 8));
    a2 = lane_round(a2, load_le64(p + 16));
    a3 = lane_round(a3, load_le64(p + 24));
  }
  acc[0] = a0, acc[1] = a1, acc[2] = a2, acc[3] = a3;
  return static_cast<std::size_t>(p - begin);
}

/// Steps 3-6 of the spec: converge the accumulators (or seed the short
/// form), add the length, absorb the < 32-byte tail and avalanche.
std::uint64_t finalize(const std::uint64_t acc[4], std::uint64_t seed,
                       std::uint64_t total, const std::uint8_t* p,
                       std::size_t n) {
  std::uint64_t h;
  if (total >= 32) {
    h = rotl(acc[0], 1) + rotl(acc[1], 7) + rotl(acc[2], 12) + rotl(acc[3], 18);
    for (int i = 0; i < 4; ++i) h = merge(h, acc[i]);
  } else {
    h = seed + kPrime5;
  }
  h += total;
  for (; n >= 8; n -= 8, p += 8) {
    h = rotl(h ^ lane_round(0, load_le64(p)), 27) * kPrime1 + kPrime4;
  }
  if (n >= 4) {
    h = rotl(h ^ (load_le32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    n -= 4;
    p += 4;
  }
  for (; n > 0; --n, ++p) {
    h = rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

void Xxh64::reset(std::uint64_t seed) {
  seed_ = seed;
  acc_[0] = seed + kPrime1 + kPrime2;
  acc_[1] = seed + kPrime2;
  acc_[2] = seed;
  acc_[3] = seed - kPrime1;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Xxh64::update(std::span<const std::byte> data) {
  if (data.empty()) return;  // data() may be null; memcpy must not see it
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  total_bytes_ += n;
  if (buffered_ > 0) {
    std::size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < sizeof(buffer_)) return;
    stripes(acc_, buffer_, sizeof(buffer_));
    buffered_ = 0;
  }
  std::size_t used = stripes(acc_, p, n);
  p += used;
  n -= used;
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

std::uint64_t Xxh64::digest() const {
  return finalize(acc_, seed_, total_bytes_, buffer_, buffered_);
}

std::uint64_t Xxh64::hash(std::string_view data, std::uint64_t seed) {
  Xxh64 h(seed);
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t used = stripes(h.acc_, p, data.size());
  return finalize(h.acc_, seed, data.size(), p + used, data.size() - used);
}

}  // namespace vine
