// Unit tests for src/hash: MD5 / SHA-1 against RFC vectors, XXH64 against
// the xxHash specification's vectors, hex codec, and
// the Merkle directory naming from paper §3.2 / Figure 7.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "hash/digest.hpp"
#include "hash/dirhash.hpp"
#include "hash/hex.hpp"
#include "hash/md5.hpp"
#include "hash/sha1.hpp"
#include "hash/xxh64.hpp"

namespace vine {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- MD5

// RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::hex("1234567890123456789012345678901234567890123456789012345678901234"
                     "5678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  std::string data(100000, 'x');
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 31);

  Md5 h;
  // Feed in awkward chunk sizes crossing block boundaries.
  std::size_t pos = 0;
  std::size_t chunks[] = {1, 63, 64, 65, 127, 128, 1000, 4096};
  std::size_t ci = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(chunks[ci++ % 8], data.size() - pos);
    h.update(std::string_view(data).substr(pos, n));
    pos += n;
  }
  auto d = h.finish();
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(d.data(), d.size())),
            Md5::hex(data));
}

TEST(Md5, ExactBlockBoundaries) {
  // Messages of size 55/56/63/64/65 hit every padding branch.
  for (std::size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string s(n, 'q');
    Md5 h;
    h.update(s);
    auto once = h.finish();
    Md5 h2;
    for (char c : s) h2.update(std::string_view(&c, 1));
    auto twice = h2.finish();
    EXPECT_EQ(once, twice) << "length " << n;
  }
}

// RFC 1321 does not list it, but the one-million-'a' message is the
// standard long vector: 15625 full blocks through the round function.
TEST(Md5, MillionA) {
  EXPECT_EQ(Md5::hex(std::string(1000000, 'a')),
            "7707d6ae4e027c70eea2a935c2296f21");
}

/// Deterministic pseudo-random bytes (an LCG's high bits), so every message
/// word the round function sees differs.
std::string pseudo_random_bytes(std::size_t n, std::uint32_t seed) {
  std::string out(n, '\0');
  for (auto& c : out) {
    seed = seed * 1664525u + 1013904223u;
    c = static_cast<char>(seed >> 24);
  }
  return out;
}

TEST(Md5, IncrementalSplitsAroundBlockBoundaries) {
  const std::string data = pseudo_random_bytes(4 << 20, 7);
  const std::string whole = Md5::hex(data);
  // Split the message at every offset within 70 bytes of several block
  // boundaries, so the split lands on, before and after each: the carry
  // through the partial-block buffer must never drop or repeat a byte.
  // The boundaries sit in the last 64 KiB and the bytes before each window
  // are absorbed once (then the hasher is copied), which keeps the test to
  // a few full-message hashes.
  const std::size_t n = data.size();
  for (std::size_t boundary : {n - 65536, n - 4096, n - 640, n - 64}) {
    const std::size_t lo = boundary - 70;  // not block-aligned: 58 buffered
    Md5 prefix;
    prefix.update(std::string_view(data).substr(0, lo));
    for (std::size_t split = lo; split <= std::min(n, boundary + 70); ++split) {
      Md5 h = prefix;
      h.update(std::string_view(data).substr(lo, split - lo));
      h.update(std::string_view(data).substr(split));
      auto d = h.finish();
      ASSERT_EQ(to_hex(std::span<const std::uint8_t>(d.data(), d.size())),
                whole)
          << "split at " << split;
    }
  }
}

TEST(Md5, ResetAllowsReuse) {
  Md5 h;
  h.update("abc");
  (void)h.finish();
  h.reset();
  h.update("abc");
  auto d = h.finish();
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(d.data(), d.size())),
            "900150983cd24fb0d6963f7d28e17f72");
}

// ---------------------------------------------------------------- SHA-1

// RFC 3174 / FIPS 180 vectors.
TEST(Sha1, KnownVectors) {
  EXPECT_EQ(Sha1::hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  std::string million_a(1000000, 'a');
  EXPECT_EQ(Sha1::hex(million_a), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::string data(12345, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7 + 3);
  Sha1 h;
  h.update(std::string_view(data).substr(0, 100));
  h.update(std::string_view(data).substr(100));
  auto d = h.finish();
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(d.data(), d.size())),
            Sha1::hex(data));
}

// ---------------------------------------------------------------- XXH64

// The published seed-0 vectors of the xxHash specification.
TEST(Xxh64, PublishedVectors) {
  EXPECT_EQ(xxh64_buffer(""), "ef46db3751d8e999");
  EXPECT_EQ(xxh64_buffer("a"), "d24ec4f1a98c6e5b");
  EXPECT_EQ(xxh64_buffer("abc"), "44bc2cf5ad770999");
  EXPECT_EQ(Xxh64::hash(""), 0xef46db3751d8e999ULL);
}

TEST(Xxh64, IncrementalSplitsAroundStripeBoundaries) {
  const std::string data = pseudo_random_bytes(1000, 3);
  const std::uint64_t whole = Xxh64::hash(data);
  // Every split point, then three-way splits that leave a partial stripe
  // buffered across two updates.
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Xxh64 h;
    h.update(std::string_view(data).substr(0, cut));
    EXPECT_EQ(h.digest(), Xxh64::hash(std::string_view(data).substr(0, cut)))
        << "digest() of a prefix of " << cut;
    h.update(std::string_view(data).substr(cut));
    ASSERT_EQ(h.digest(), whole) << "split at " << cut;
  }
  for (std::size_t a = 1; a < 40; ++a) {
    Xxh64 h;
    h.update(std::string_view(data).substr(0, a));
    h.update(std::string_view(data).substr(a, 5));
    h.update(std::string_view(data).substr(a + 5));
    ASSERT_EQ(h.digest(), whole) << "splits at " << a << " and " << a + 5;
  }
  Xxh64 reused(7);
  reused.update(data);
  reused.reset();
  reused.update(std::string_view(data).substr(0, 10));
  reused.update(std::string_view{});  // an empty view may carry no pointer
  reused.update(std::string_view(data).substr(10));
  EXPECT_EQ(reused.digest(), whole);
}

TEST(Xxh64, StreamedFileMatchesOneShot) {
  const auto dir = fs::temp_directory_path() / "vine_xxh64_file_test";
  fs::create_directories(dir);
  // Around the 32-byte stripe and the 64 KiB read chunk, and one
  // 2 MB size that is a multiple of neither.
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{31},
                           std::size_t{32}, std::size_t{33}, std::size_t{65535},
                           std::size_t{65536}, std::size_t{65537},
                           std::size_t{2000003}}) {
    const std::string content = pseudo_random_bytes(size, 5);
    auto file = dir / ("f" + std::to_string(size));
    std::ofstream(file, std::ios::binary)
        .write(content.data(), static_cast<std::streamsize>(content.size()));
    auto h = xxh64_file(file);
    ASSERT_TRUE(h.ok()) << h.error().to_string();
    EXPECT_EQ(*h, xxh64_buffer(content)) << "size " << size;
    EXPECT_EQ(h->size(), 16u);
  }
  auto missing = xxh64_file(dir / "missing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Errc::io_error);
  fs::remove_all(dir);
}

// The checksum's job is to catch damage in flight: no single-bit flip may
// go unseen, in a page-sized buffer or in any short one (which takes the
// tail-only path with no stripes).
TEST(Xxh64, EverySingleBitFlipChangesTheChecksum) {
  auto all_flips_seen = [](std::string data) {
    const std::uint64_t clean = Xxh64::hash(data);
    std::unordered_set<std::uint64_t> seen{clean};
    for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
      data[bit / 8] ^= static_cast<char>(1 << (bit % 8));
      const std::uint64_t flipped = Xxh64::hash(data);
      data[bit / 8] ^= static_cast<char>(1 << (bit % 8));
      if (!seen.insert(flipped).second) {
        ADD_FAILURE() << "flip of bit " << bit << " of " << data.size()
                      << " bytes collides";
        return;
      }
    }
  };
  all_flips_seen(pseudo_random_bytes(4096, 9));
  all_flips_seen(std::string(4096, '\0'));
  for (std::size_t n = 0; n <= 64; ++n) {
    all_flips_seen(pseudo_random_bytes(n, 13 + static_cast<std::uint32_t>(n)));
  }
}

// ---------------------------------------------------------------- hex

TEST(Hex, RoundTrip) {
  std::vector<std::uint8_t> bytes{0x00, 0x01, 0xab, 0xff, 0x7f};
  auto h = to_hex(bytes);
  EXPECT_EQ(h, "0001abff7f");
  auto back = from_hex(h);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
}

TEST(Hex, AcceptsUppercase) {
  auto v = from_hex("AbCd");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 0xab);
  EXPECT_EQ((*v)[1], 0xcd);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
  EXPECT_TRUE(from_hex("").has_value());       // empty ok
}

// ---------------------------------------------------------------- digest

TEST(Digest, FileHashMatchesBuffer) {
  auto dir = fs::temp_directory_path() / "vine_hash_test";
  fs::create_directories(dir);
  auto file = dir / "x.bin";
  std::string content(200000, 'z');
  for (std::size_t i = 0; i < content.size(); ++i) content[i] = static_cast<char>(i);
  std::ofstream(file, std::ios::binary).write(content.data(),
                                              static_cast<std::streamsize>(content.size()));
  auto h = md5_file(file);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, md5_buffer(content));
  fs::remove_all(dir);
}

TEST(Digest, MultiMebibyteFileHashMatchesBuffer) {
  // Many times md5_file's 64 KiB read buffer and not a multiple of it, so
  // the streamed chunks end mid-block.
  auto dir = fs::temp_directory_path() / "vine_hash_big_test";
  fs::create_directories(dir);
  auto file = dir / "big.bin";
  const std::string content = pseudo_random_bytes((3 << 20) + 12345, 11);
  std::ofstream(file, std::ios::binary)
      .write(content.data(), static_cast<std::streamsize>(content.size()));
  auto h = md5_file(file);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, md5_buffer(content));
  fs::remove_all(dir);
}

TEST(Digest, MissingFileIsError) {
  auto h = md5_file("/nonexistent/definitely/missing");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.error().code, Errc::io_error);
}

// ---------------------------------------------------------------- dirhash

TEST(DirHash, DocumentIsOrderIndependent) {
  std::vector<DirDocEntry> a{
      {DirDocEntry::Kind::file, "b.txt", 10, "hb"},
      {DirDocEntry::Kind::file, "a.txt", 5, "ha"},
  };
  std::vector<DirDocEntry> b{
      {DirDocEntry::Kind::file, "a.txt", 5, "ha"},
      {DirDocEntry::Kind::file, "b.txt", 10, "hb"},
  };
  EXPECT_EQ(hash_dir_document(a), hash_dir_document(b));
}

TEST(DirHash, DocumentSensitiveToContent) {
  std::vector<DirDocEntry> base{{DirDocEntry::Kind::file, "a", 1, "h1"}};
  std::vector<DirDocEntry> renamed{{DirDocEntry::Kind::file, "b", 1, "h1"}};
  std::vector<DirDocEntry> resized{{DirDocEntry::Kind::file, "a", 2, "h1"}};
  std::vector<DirDocEntry> rehashed{{DirDocEntry::Kind::file, "a", 1, "h2"}};
  std::vector<DirDocEntry> rekind{{DirDocEntry::Kind::directory, "a", 1, "h1"}};
  auto h = hash_dir_document(base);
  EXPECT_NE(h, hash_dir_document(renamed));
  EXPECT_NE(h, hash_dir_document(resized));
  EXPECT_NE(h, hash_dir_document(rehashed));
  EXPECT_NE(h, hash_dir_document(rekind));
}

class MerkleTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("vine_merkle_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const fs::path& rel, std::string_view content) {
    auto p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p, std::ios::binary)
        << std::string(content);
  }

  fs::path root_;
};

TEST_F(MerkleTreeTest, PlainFileIsContentMd5) {
  write("f.txt", "hello");
  auto h = merkle_hash_path(root_ / "f.txt");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, md5_buffer("hello"));
}

TEST_F(MerkleTreeTest, IdenticalTreesGetIdenticalNames) {
  write("t1/sub/a.txt", "alpha");
  write("t1/b.txt", "beta");
  write("t2/sub/a.txt", "alpha");
  write("t2/b.txt", "beta");
  auto h1 = merkle_hash_path(root_ / "t1");
  auto h2 = merkle_hash_path(root_ / "t2");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*h1, *h2);
}

TEST_F(MerkleTreeTest, ContentChangePropagatesToRoot) {
  write("t/sub/a.txt", "alpha");
  auto before = merkle_hash_path(root_ / "t");
  ASSERT_TRUE(before.ok());
  write("t/sub/a.txt", "ALPHA");
  auto after = merkle_hash_path(root_ / "t");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*before, *after);
}

TEST_F(MerkleTreeTest, RenamePropagatesToRoot) {
  write("t/a.txt", "data");
  auto before = merkle_hash_path(root_ / "t");
  fs::rename(root_ / "t/a.txt", root_ / "t/b.txt");
  auto after = merkle_hash_path(root_ / "t");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*before, *after);
}

TEST_F(MerkleTreeTest, EmptyDirectoryHasStableName) {
  fs::create_directories(root_ / "e1");
  fs::create_directories(root_ / "e2");
  auto h1 = merkle_hash_path(root_ / "e1");
  auto h2 = merkle_hash_path(root_ / "e2");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*h1, *h2);
  EXPECT_EQ(*h1, hash_dir_document({}));
}

TEST_F(MerkleTreeTest, SymlinkHashedByTarget) {
  write("t/a.txt", "data");
  fs::create_symlink("a.txt", root_ / "t/l1");
  auto h1 = merkle_hash_path(root_ / "t/l1");
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(*h1, md5_buffer("vine-link-v1\na.txt"));
}

TEST_F(MerkleTreeTest, MissingPathIsError) {
  auto h = merkle_hash_path(root_ / "nope");
  EXPECT_FALSE(h.ok());
}

}  // namespace
}  // namespace vine
