#include "hash/md5.hpp"

#include <cstring>

#include "hash/hex.hpp"

namespace vine {
namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

void Md5::reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  total_bytes_ = 0;
  buffered_ = 0;
}

// The four RFC 1321 auxiliary functions. F and G are bit selects, written
// with one and and two xors instead of the spec's and-not-or form.
#define VINE_MD5_F(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define VINE_MD5_G(x, y, z) ((y) ^ ((z) & ((x) ^ (y))))
#define VINE_MD5_H(x, y, z) ((x) ^ (y) ^ (z))
#define VINE_MD5_I(x, y, z) ((y) ^ ((x) | ~(z)))

// One step: a = b + ((a + f(b,c,d) + m + k) <<< s), where k is the RFC's
// T[i] = floor(2^32 * |sin(i + 1)|). Every shift, message index and
// constant is a literal, so the block compiles to straight-line register
// code with no branches or table loads.
#define VINE_MD5_STEP(f, a, b, c, d, m, k, s) \
  (a) = (b) + rotl((a) + f((b), (c), (d)) + (m) + (k), (s))

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1: message words in order.
  VINE_MD5_STEP(VINE_MD5_F, a, b, c, d, m[0], 0xd76aa478, 7);
  VINE_MD5_STEP(VINE_MD5_F, d, a, b, c, m[1], 0xe8c7b756, 12);
  VINE_MD5_STEP(VINE_MD5_F, c, d, a, b, m[2], 0x242070db, 17);
  VINE_MD5_STEP(VINE_MD5_F, b, c, d, a, m[3], 0xc1bdceee, 22);
  VINE_MD5_STEP(VINE_MD5_F, a, b, c, d, m[4], 0xf57c0faf, 7);
  VINE_MD5_STEP(VINE_MD5_F, d, a, b, c, m[5], 0x4787c62a, 12);
  VINE_MD5_STEP(VINE_MD5_F, c, d, a, b, m[6], 0xa8304613, 17);
  VINE_MD5_STEP(VINE_MD5_F, b, c, d, a, m[7], 0xfd469501, 22);
  VINE_MD5_STEP(VINE_MD5_F, a, b, c, d, m[8], 0x698098d8, 7);
  VINE_MD5_STEP(VINE_MD5_F, d, a, b, c, m[9], 0x8b44f7af, 12);
  VINE_MD5_STEP(VINE_MD5_F, c, d, a, b, m[10], 0xffff5bb1, 17);
  VINE_MD5_STEP(VINE_MD5_F, b, c, d, a, m[11], 0x895cd7be, 22);
  VINE_MD5_STEP(VINE_MD5_F, a, b, c, d, m[12], 0x6b901122, 7);
  VINE_MD5_STEP(VINE_MD5_F, d, a, b, c, m[13], 0xfd987193, 12);
  VINE_MD5_STEP(VINE_MD5_F, c, d, a, b, m[14], 0xa679438e, 17);
  VINE_MD5_STEP(VINE_MD5_F, b, c, d, a, m[15], 0x49b40821, 22);

  // Round 2: message index (5i + 1) mod 16.
  VINE_MD5_STEP(VINE_MD5_G, a, b, c, d, m[1], 0xf61e2562, 5);
  VINE_MD5_STEP(VINE_MD5_G, d, a, b, c, m[6], 0xc040b340, 9);
  VINE_MD5_STEP(VINE_MD5_G, c, d, a, b, m[11], 0x265e5a51, 14);
  VINE_MD5_STEP(VINE_MD5_G, b, c, d, a, m[0], 0xe9b6c7aa, 20);
  VINE_MD5_STEP(VINE_MD5_G, a, b, c, d, m[5], 0xd62f105d, 5);
  VINE_MD5_STEP(VINE_MD5_G, d, a, b, c, m[10], 0x02441453, 9);
  VINE_MD5_STEP(VINE_MD5_G, c, d, a, b, m[15], 0xd8a1e681, 14);
  VINE_MD5_STEP(VINE_MD5_G, b, c, d, a, m[4], 0xe7d3fbc8, 20);
  VINE_MD5_STEP(VINE_MD5_G, a, b, c, d, m[9], 0x21e1cde6, 5);
  VINE_MD5_STEP(VINE_MD5_G, d, a, b, c, m[14], 0xc33707d6, 9);
  VINE_MD5_STEP(VINE_MD5_G, c, d, a, b, m[3], 0xf4d50d87, 14);
  VINE_MD5_STEP(VINE_MD5_G, b, c, d, a, m[8], 0x455a14ed, 20);
  VINE_MD5_STEP(VINE_MD5_G, a, b, c, d, m[13], 0xa9e3e905, 5);
  VINE_MD5_STEP(VINE_MD5_G, d, a, b, c, m[2], 0xfcefa3f8, 9);
  VINE_MD5_STEP(VINE_MD5_G, c, d, a, b, m[7], 0x676f02d9, 14);
  VINE_MD5_STEP(VINE_MD5_G, b, c, d, a, m[12], 0x8d2a4c8a, 20);

  // Round 3: message index (3i + 5) mod 16.
  VINE_MD5_STEP(VINE_MD5_H, a, b, c, d, m[5], 0xfffa3942, 4);
  VINE_MD5_STEP(VINE_MD5_H, d, a, b, c, m[8], 0x8771f681, 11);
  VINE_MD5_STEP(VINE_MD5_H, c, d, a, b, m[11], 0x6d9d6122, 16);
  VINE_MD5_STEP(VINE_MD5_H, b, c, d, a, m[14], 0xfde5380c, 23);
  VINE_MD5_STEP(VINE_MD5_H, a, b, c, d, m[1], 0xa4beea44, 4);
  VINE_MD5_STEP(VINE_MD5_H, d, a, b, c, m[4], 0x4bdecfa9, 11);
  VINE_MD5_STEP(VINE_MD5_H, c, d, a, b, m[7], 0xf6bb4b60, 16);
  VINE_MD5_STEP(VINE_MD5_H, b, c, d, a, m[10], 0xbebfbc70, 23);
  VINE_MD5_STEP(VINE_MD5_H, a, b, c, d, m[13], 0x289b7ec6, 4);
  VINE_MD5_STEP(VINE_MD5_H, d, a, b, c, m[0], 0xeaa127fa, 11);
  VINE_MD5_STEP(VINE_MD5_H, c, d, a, b, m[3], 0xd4ef3085, 16);
  VINE_MD5_STEP(VINE_MD5_H, b, c, d, a, m[6], 0x04881d05, 23);
  VINE_MD5_STEP(VINE_MD5_H, a, b, c, d, m[9], 0xd9d4d039, 4);
  VINE_MD5_STEP(VINE_MD5_H, d, a, b, c, m[12], 0xe6db99e5, 11);
  VINE_MD5_STEP(VINE_MD5_H, c, d, a, b, m[15], 0x1fa27cf8, 16);
  VINE_MD5_STEP(VINE_MD5_H, b, c, d, a, m[2], 0xc4ac5665, 23);

  // Round 4: message index 7i mod 16.
  VINE_MD5_STEP(VINE_MD5_I, a, b, c, d, m[0], 0xf4292244, 6);
  VINE_MD5_STEP(VINE_MD5_I, d, a, b, c, m[7], 0x432aff97, 10);
  VINE_MD5_STEP(VINE_MD5_I, c, d, a, b, m[14], 0xab9423a7, 15);
  VINE_MD5_STEP(VINE_MD5_I, b, c, d, a, m[5], 0xfc93a039, 21);
  VINE_MD5_STEP(VINE_MD5_I, a, b, c, d, m[12], 0x655b59c3, 6);
  VINE_MD5_STEP(VINE_MD5_I, d, a, b, c, m[3], 0x8f0ccc92, 10);
  VINE_MD5_STEP(VINE_MD5_I, c, d, a, b, m[10], 0xffeff47d, 15);
  VINE_MD5_STEP(VINE_MD5_I, b, c, d, a, m[1], 0x85845dd1, 21);
  VINE_MD5_STEP(VINE_MD5_I, a, b, c, d, m[8], 0x6fa87e4f, 6);
  VINE_MD5_STEP(VINE_MD5_I, d, a, b, c, m[15], 0xfe2ce6e0, 10);
  VINE_MD5_STEP(VINE_MD5_I, c, d, a, b, m[6], 0xa3014314, 15);
  VINE_MD5_STEP(VINE_MD5_I, b, c, d, a, m[13], 0x4e0811a1, 21);
  VINE_MD5_STEP(VINE_MD5_I, a, b, c, d, m[4], 0xf7537e82, 6);
  VINE_MD5_STEP(VINE_MD5_I, d, a, b, c, m[11], 0xbd3af235, 10);
  VINE_MD5_STEP(VINE_MD5_I, c, d, a, b, m[2], 0x2ad7d2bb, 15);
  VINE_MD5_STEP(VINE_MD5_I, b, c, d, a, m[9], 0xeb86d391, 21);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

#undef VINE_MD5_STEP
#undef VINE_MD5_I
#undef VINE_MD5_H
#undef VINE_MD5_G
#undef VINE_MD5_F

void Md5::update(std::span<const std::byte> data) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  total_bytes_ += n;

  if (buffered_ > 0) {
    std::size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (n >= sizeof(buffer_)) {
    process_block(p);
    p += sizeof(buffer_);
    n -= sizeof(buffer_);
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Md5::Digest Md5::finish() {
  std::uint64_t bit_len = total_bytes_ * 8;

  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length (LE).
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update(std::as_bytes(std::span(pad, pad_len)));

  std::uint8_t len_bytes[8];
  store_le32(len_bytes, static_cast<std::uint32_t>(bit_len));
  store_le32(len_bytes + 4, static_cast<std::uint32_t>(bit_len >> 32));
  // total_bytes_ changed by padding updates; bypass update() accounting by
  // feeding directly: the final block is completed exactly here.
  {
    std::memcpy(buffer_ + buffered_, len_bytes, 8);
    process_block(buffer_);
    buffered_ = 0;
  }

  Digest out;
  for (int i = 0; i < 4; ++i) store_le32(out.data() + 4 * i, state_[i]);
  return out;
}

std::string Md5::hex(std::string_view data) {
  Md5 h;
  h.update(data);
  auto d = h.finish();
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

}  // namespace vine
