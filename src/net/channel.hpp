// In-process transport. A ChannelEndpoint pair shares two pipes, one per
// direction, and delivers frames to a receiver on the sender's thread the
// way the reactor delivers TCP frames on its event thread; a
// ChannelListener registers a name in the process-global ChannelFabric so
// "chan:NAME" addresses resolve, letting a whole cluster (manager, workers,
// peer transfers) run inside a single test process with the exact same code
// paths as the TCP deployment.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/mutex.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"

namespace vine {

/// Create a connected endpoint pair (two ends of one in-process duplex
/// connection). `a_name`/`b_name` become each end's peer_name.
std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> make_channel_pair(
    const std::string& a_name, const std::string& b_name);

/// Process-global registry of channel listeners, keyed by "chan:NAME".
class ChannelFabric {
 public:
  static ChannelFabric& instance();

  /// Create a listener bound to "chan:NAME". Fails if the name is taken.
  Result<std::unique_ptr<Listener>> listen(const std::string& name);

  /// Connect to a registered listener.
  Result<std::unique_ptr<Endpoint>> connect(const std::string& address,
                                            std::chrono::milliseconds timeout);

  /// Implementation detail shared with the listener (public because the
  /// listener lives in an unnamed namespace in the .cpp).
  struct PendingQueue;

 private:
  // Guards listeners_ (listen/connect/close arrive from arbitrary threads).
  Mutex mutex_{lock_rank::Rank::channel_fabric};
  std::map<std::string, std::shared_ptr<PendingQueue>> listeners_
      VINE_GUARDED_BY(mutex_);
};

}  // namespace vine
