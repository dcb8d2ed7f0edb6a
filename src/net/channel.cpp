#include "net/channel.hpp"

#include <functional>
#include <utility>

namespace vine {

namespace {

/// One direction of an in-process connection. Until the receiving end
/// installs a receiver, sent frames wait in `frames` for its recv(); after
/// that, send() hands each frame straight to the receiver on the sender's
/// thread, the way the reactor delivers TCP frames on its event thread.
struct Pipe {
  explicit Pipe(std::string from) : from(std::move(from)) {}

  /// Close the direction. An installed receiver gets the terminal error
  /// now; a pull-mode reader drains what is buffered, then sees it.
  void close() {
    std::function<void(Result<Frame>)> told;  // destroyed after unlocking
    MutexLock lock(mu);
    frames.close();
    told = std::exchange(receiver, nullptr);
    if (told) told(death());
  }

  Error death() const {
    return Error{Errc::unavailable, "connection closed: " + from};
  }

  const std::string from;  ///< the sending end's name, for error messages
  // Guards receiver, and orders every push into and close of frames with
  // its installation. Ranks endpoint_send, like ReactorConn::mu_, for the
  // same reason: the receiver runs under it, so frames reach it in send
  // order, the terminal error comes last, and close() waits out a delivery
  // in flight. The receiver may only take locks ranked above it.
  Mutex mu{lock_rank::Rank::endpoint_send};
  std::function<void(Result<Frame>)> receiver VINE_GUARDED_BY(mu);
  MsgQueue<Frame> frames;  ///< pull-mode buffer; closed with the pipe
};

/// An endpoint writing into the peer's inbound pipe and reading its own.
class ChannelEndpoint final : public Endpoint {
 public:
  ChannelEndpoint(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in,
                  std::string peer)
      : out_(std::move(out)), in_(std::move(in)), peer_(std::move(peer)) {}

  ~ChannelEndpoint() override { close(); }

  Status send(Frame frame) override {
    MutexLock lock(out_->mu);
    if (out_->receiver) {
      out_->receiver(std::move(frame));
    } else if (!out_->frames.push(std::move(frame))) {
      return Error{Errc::unavailable, "peer closed: " + peer_};
    }
    return Status::success();
  }

  Result<Frame> recv(std::chrono::milliseconds timeout) override {
    auto f = in_->frames.pop(timeout);
    if (f) return std::move(*f);
    if (in_->frames.closed()) return in_->death();
    return Error{Errc::timeout, "recv timeout from " + peer_};
  }

  void set_receiver(std::function<void(Result<Frame>)> fn) override {
    MutexLock lock(in_->mu);
    while (auto f = in_->frames.try_pop()) fn(std::move(*f));
    if (in_->frames.closed()) {
      fn(in_->death());
      return;
    }
    in_->receiver = std::move(fn);
  }

  void close() override {
    // Either end's close ends both directions; each pipe tells its own
    // receiver, so both ends hear the terminal error exactly once.
    in_->close();
    out_->close();
  }

  std::string peer_name() const override { return peer_; }

 private:
  const std::shared_ptr<Pipe> out_;
  const std::shared_ptr<Pipe> in_;
  const std::string peer_;
};

}  // namespace

std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> make_channel_pair(
    const std::string& a_name, const std::string& b_name) {
  auto a_to_b = std::make_shared<Pipe>(a_name);
  auto b_to_a = std::make_shared<Pipe>(b_name);
  auto a = std::make_unique<ChannelEndpoint>(a_to_b, b_to_a, b_name);
  auto b = std::make_unique<ChannelEndpoint>(b_to_a, a_to_b, a_name);
  return {std::move(a), std::move(b)};
}

/// A queue of endpoints waiting to be accept()ed.
struct ChannelFabric::PendingQueue {
  MsgQueue<std::unique_ptr<Endpoint>> pending;
  std::string address;
};

namespace {

class ChannelListener final : public Listener {
 public:
  ChannelListener(std::shared_ptr<ChannelFabric::PendingQueue> q, std::string address)
      : q_(std::move(q)), address_(std::move(address)) {}

  ~ChannelListener() override { close(); }

  Result<std::unique_ptr<Endpoint>> accept(std::chrono::milliseconds timeout) override {
    auto ep = q_->pending.pop(timeout);
    if (!ep) {
      if (q_->pending.closed()) {
        return Error{Errc::unavailable, "listener closed: " + address_};
      }
      return Error{Errc::timeout, "accept timeout on " + address_};
    }
    return std::move(*ep);
  }

  std::string address() const override { return address_; }

  void close() override { q_->pending.close(); }

 private:
  std::shared_ptr<ChannelFabric::PendingQueue> q_;
  std::string address_;
};

}  // namespace

ChannelFabric& ChannelFabric::instance() {
  static ChannelFabric fabric;
  return fabric;
}

Result<std::unique_ptr<Listener>> ChannelFabric::listen(const std::string& name) {
  std::string address = "chan:" + name;
  MutexLock lock(mutex_);
  auto it = listeners_.find(address);
  if (it != listeners_.end() && !it->second->pending.closed()) {
    return Error{Errc::already_exists, "channel name taken: " + address};
  }
  auto q = std::make_shared<PendingQueue>();
  q->address = address;
  listeners_[address] = q;
  return std::unique_ptr<Listener>(new ChannelListener(q, address));
}

Result<std::unique_ptr<Endpoint>> ChannelFabric::connect(
    const std::string& address, std::chrono::milliseconds /*timeout*/) {
  std::shared_ptr<PendingQueue> q;
  {
    MutexLock lock(mutex_);
    auto it = listeners_.find(address);
    if (it == listeners_.end() || it->second->pending.closed()) {
      return Error{Errc::unavailable, "no such channel listener: " + address};
    }
    q = it->second;
  }
  auto [client, server] = make_channel_pair("client-of-" + address, address);
  if (!q->pending.push(std::move(server))) {
    return Error{Errc::unavailable, "listener closed: " + address};
  }
  return std::move(client);
}

}  // namespace vine
