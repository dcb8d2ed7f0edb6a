// Wire frames and the Endpoint/Listener transport abstraction.
//
// A frame is either a JSON control message or a tagged binary blob (file
// payloads). On TCP the encoding is:
//   u32  payload length (LE)      -- excludes this 5-byte header
//   u8   kind: 'J' json | 'B' blob
//   for 'J': payload = UTF-8 JSON text
//   for 'B': payload = u32 tag length, tag bytes, blob bytes
// In-process channels pass Frame objects directly (no serialization).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "json/json.hpp"

namespace vine {

/// One unit of communication between manager, workers, and peers.
struct Frame {
  enum class Kind : char { json = 'J', blob = 'B' };
  Kind kind = Kind::json;
  json::Value msg;   ///< valid when kind == json
  std::string tag;   ///< blob identity (cache name); valid when kind == blob
  std::string data;  ///< blob bytes; valid when kind == blob

  static Frame make_json(json::Value v) {
    Frame f;
    f.kind = Kind::json;
    f.msg = std::move(v);
    return f;
  }
  static Frame make_blob(std::string tag, std::string data) {
    Frame f;
    f.kind = Kind::blob;
    f.tag = std::move(tag);
    f.data = std::move(data);
    return f;
  }
};

/// Serialize a frame to the TCP wire format (header + payload).
std::string encode_frame(const Frame& frame);

/// Decode one frame from a complete payload (header already stripped).
Result<Frame> decode_frame_payload(char kind, std::string payload);

/// Zero-intermediate-copy variant: decodes directly out of the caller's
/// buffer (the reactor's batched inbound buffer). Blob bytes are copied
/// exactly once, into the returned Frame.
Result<Frame> decode_frame_view(char kind, std::string_view payload);

/// Append a little-endian u32 to `out` (the wire integer encoding).
void append_u32(std::string& out, std::uint32_t v);

/// Read a little-endian u32 from `p` (must have 4 readable bytes).
std::uint32_t read_u32(const char* p);

/// Append the 5-byte frame header (payload length + kind) to `out`. The
/// reactor builds header+tag into one reused scratch buffer and hands the
/// payload to writev/sendfile separately, so no contiguous wire copy of the
/// whole frame is ever made.
void append_frame_header(std::string& out, std::uint32_t payload_len,
                         Frame::Kind kind);

/// Frame payloads above this are rejected as corrupt/hostile (512 MB covers
/// the largest assets in the paper's workloads).
inline constexpr std::uint32_t kMaxFramePayload = 512u * 1024 * 1024;

/// A bidirectional, message-oriented connection. Thread contract: send()
/// is fully thread safe (frames from concurrent senders interleave at
/// frame granularity, never within one); recv() must be called from one
/// thread at a time.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Send a frame; blocks until handed to the transport.
  virtual Status send(Frame frame) = 0;

  /// Receive the next frame, waiting up to `timeout`.
  /// Errc::timeout when nothing arrived; Errc::unavailable when the peer
  /// closed the connection.
  virtual Result<Frame> recv(std::chrono::milliseconds timeout) = 0;

  /// Close the connection; unblocks any receiver with Errc::unavailable.
  virtual void close() = 0;

  /// Stable printable identity of the remote end (address or channel name).
  virtual std::string peer_name() const = 0;

  /// Bound on how long a transport may wait for the *remainder* of a frame
  /// once its first bytes arrived. A peer that goes dead-silent mid-frame
  /// then surfaces Errc::timeout within this window instead of wedging the
  /// receiving thread. Transports without a mid-frame window (in-process
  /// channels deliver whole frames) ignore it.
  virtual void set_io_timeout(std::chrono::milliseconds) {}

  /// Push-mode delivery: install `fn` to be invoked for every inbound frame
  /// (and once, finally, with the terminal error) instead of pulling frames
  /// via recv(). Frames already buffered are drained to `fn` in order before
  /// it returns; on an already-closed connection the terminal error follows
  /// at once. No call of `fn` runs after close() returns. `fn` runs under
  /// the connection's delivery lock on the reactor thread (TCP) or on the
  /// sending or closing thread (in-process channels): it must not block or
  /// touch this endpoint.
  virtual void set_receiver(std::function<void(Result<Frame>)> fn) = 0;

  /// Send a blob frame whose payload is the contents of `path` (`size`
  /// bytes). The TCP transport streams the file zero-copy via sendfile;
  /// the base implementation reads the file and falls back to send_blob.
  /// The on-wire bytes are identical either way.
  virtual Status send_blob_file(const std::string& tag, const std::string& path,
                                std::uint64_t size);

  // Convenience wrappers.
  Status send_json(json::Value v) { return send(Frame::make_json(std::move(v))); }
  Status send_blob(std::string tag, std::string data) {
    return send(Frame::make_blob(std::move(tag), std::move(data)));
  }
};

/// Accepts incoming connections (the manager's worker port and each
/// worker's peer-transfer port).
class Listener {
 public:
  virtual ~Listener() = default;

  /// Wait up to `timeout` for a connection. Errc::timeout when none.
  virtual Result<std::unique_ptr<Endpoint>> accept(std::chrono::milliseconds timeout) = 0;

  /// Address peers can connect to ("127.0.0.1:9123" or "chan:worker-3").
  virtual std::string address() const = 0;

  virtual void close() = 0;
};

/// Connects to a listener address of either transport: "chan:NAME" routes
/// through the in-process fabric, anything else is host:port TCP.
Result<std::unique_ptr<Endpoint>> connect_to(const std::string& address,
                                             std::chrono::milliseconds timeout);

}  // namespace vine
