// Convenience digests over files and streams. MD5 gives cache names
// (naming only); XXH64 is the data plane's integrity checksum.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace vine {

/// MD5 of a whole file's contents as lowercase hex (streamed in 64 KiB
/// chunks, so arbitrarily large files are fine).
Result<std::string> md5_file(const std::filesystem::path& path);

/// MD5 of a string buffer as lowercase hex.
std::string md5_buffer(std::string_view data);

/// XXH64 (seed 0) of a whole file's contents as 16 lowercase hex digits,
/// streamed in 64 KiB chunks like md5_file.
Result<std::string> xxh64_file(const std::filesystem::path& path);

/// XXH64 (seed 0) of a string buffer as 16 lowercase hex digits.
std::string xxh64_buffer(std::string_view data);

/// SHA-1 of a string buffer as lowercase hex.
std::string sha1_buffer(std::string_view data);

}  // namespace vine
