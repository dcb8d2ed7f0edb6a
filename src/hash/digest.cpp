#include "hash/digest.hpp"

#include <fstream>

#include "hash/hex.hpp"
#include "hash/md5.hpp"
#include "hash/sha1.hpp"
#include "hash/xxh64.hpp"

namespace vine {
namespace {

/// Feed a file to `hasher.update` in 64 KiB chunks.
template <typename Hasher>
Status stream_file(const std::filesystem::path& path, Hasher& hasher) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{Errc::io_error, "cannot open for hashing: " + path.string()};
  }
  char buf[64 * 1024];
  while (in) {
    in.read(buf, sizeof buf);
    std::streamsize got = in.gcount();
    if (got > 0) {
      hasher.update(std::string_view(buf, static_cast<std::size_t>(got)));
    }
  }
  if (in.bad()) {
    return Error{Errc::io_error, "read failed while hashing: " + path.string()};
  }
  return Status::success();
}

std::string xxh64_hex(std::uint64_t v) {
  std::uint8_t be[8];
  for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  return to_hex(std::span<const std::uint8_t>(be, sizeof be));
}

}  // namespace

Result<std::string> md5_file(const std::filesystem::path& path) {
  Md5 h;
  VINE_TRY_STATUS(stream_file(path, h));
  auto d = h.finish();
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

std::string md5_buffer(std::string_view data) { return Md5::hex(data); }

Result<std::string> xxh64_file(const std::filesystem::path& path) {
  Xxh64 h;
  VINE_TRY_STATUS(stream_file(path, h));
  return xxh64_hex(h.digest());
}

std::string xxh64_buffer(std::string_view data) {
  return xxh64_hex(Xxh64::hash(data));
}

std::string sha1_buffer(std::string_view data) { return Sha1::hex(data); }

}  // namespace vine
