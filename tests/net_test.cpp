// Unit tests for src/net: frame codec, msg queue, channel transport, TCP
// transport, and cross-transport behaviour parity.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/uuid.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"
#include "net/tcp.hpp"

namespace vine {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- MsgQueue

TEST(MsgQueueTest, PushPopOrder) {
  MsgQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(10ms), 1);
  EXPECT_EQ(q.pop(10ms), 2);
  EXPECT_EQ(q.try_pop(), 3);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(MsgQueueTest, PopTimesOutWhenEmpty) {
  MsgQueue<int> q;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop(50ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 40ms);
}

TEST(MsgQueueTest, CloseWakesWaiter) {
  MsgQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    q.close();
  });
  EXPECT_EQ(q.pop(5000ms), std::nullopt);  // returns promptly on close
  closer.join();
  EXPECT_FALSE(q.push(9));
}

TEST(MsgQueueTest, DrainAfterClose) {
  MsgQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop(10ms), 7);
  EXPECT_EQ(q.pop(10ms), std::nullopt);
}

TEST(MsgQueueTest, ConcurrentProducersAllDelivered) {
  MsgQueue<int> q;
  constexpr int kThreads = 8, kPer = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&q, t] {
      for (int i = 0; i < kPer; ++i) q.push(t * kPer + i);
    });
  }
  std::vector<bool> seen(kThreads * kPer, false);
  for (int i = 0; i < kThreads * kPer; ++i) {
    auto v = q.pop(1000ms);
    ASSERT_TRUE(v.has_value());
    seen[static_cast<std::size_t>(*v)] = true;
  }
  for (auto& p : producers) p.join();
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MsgQueueTest, CloseWhilePoppingReturnsPromptly) {
  // A consumer already blocked in pop() with a long timeout must wake as
  // soon as close() lands, not ride out the timeout.
  MsgQueue<int> q;
  std::optional<int> got = 0;
  std::chrono::steady_clock::duration waited{};
  std::thread popper([&] {
    auto start = std::chrono::steady_clock::now();
    got = q.pop(30000ms);
    waited = std::chrono::steady_clock::now() - start;
  });
  std::this_thread::sleep_for(50ms);  // let the popper block
  q.close();
  popper.join();
  EXPECT_EQ(got, std::nullopt);
  EXPECT_LT(waited, 5000ms);
}

TEST(MsgQueueTest, TimeoutIsAbsoluteAcrossWakeups) {
  // Wakeups that find the queue empty again (another consumer stole the
  // item) must re-arm against the original deadline, not restart the full
  // timeout — otherwise a push/steal storm could block pop() indefinitely.
  MsgQueue<int> q;
  std::thread stealer([&] {
    for (int i = 0; i < 20; ++i) {
      std::this_thread::sleep_for(10ms);
      q.push(i);
      // Steal it back before the victim can grab it (races are fine either
      // way: the victim either gets a value or times out on schedule).
      (void)q.try_pop();
    }
  });
  auto start = std::chrono::steady_clock::now();
  (void)q.pop(100ms);
  auto waited = std::chrono::steady_clock::now() - start;
  stealer.join();
  // 20 spurious-looking wakeups at 10ms apiece would stretch a
  // restart-the-timeout implementation well past 300ms.
  EXPECT_LT(waited, 1000ms);
}

// ---------------------------------------------------------------- frames

TEST(FrameTest, JsonFrameRoundTrip) {
  json::Object o;
  o["type"] = "task_done";
  o["id"] = 42;
  Frame f = Frame::make_json(json::Value(o));
  auto wire = encode_frame(f);
  auto back = decode_frame_payload(wire[4], wire.substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, Frame::Kind::json);
  EXPECT_EQ(back->msg.get_int("id"), 42);
}

TEST(FrameTest, BlobFrameRoundTrip) {
  std::string data(100000, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 13);
  Frame f = Frame::make_blob("md5-abc123", data);
  auto wire = encode_frame(f);
  auto back = decode_frame_payload(wire[4], wire.substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, Frame::Kind::blob);
  EXPECT_EQ(back->tag, "md5-abc123");
  EXPECT_EQ(back->data, data);
}

TEST(FrameTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode_frame_payload('J', "not json").ok());
  EXPECT_FALSE(decode_frame_payload('B', "abc").ok());  // too short for tag len
  EXPECT_FALSE(decode_frame_payload('X', "{}").ok());   // unknown kind
  // tag length larger than payload
  std::string bad = std::string("\xff\xff\xff\x7f", 4) + "x";
  EXPECT_FALSE(decode_frame_payload('B', bad).ok());
}

TEST(FrameTest, EmptyBlobAllowed) {
  Frame f = Frame::make_blob("t", "");
  auto wire = encode_frame(f);
  auto back = decode_frame_payload(wire[4], wire.substr(5));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data, "");
}

// ------------------------------------------------------- transport parity

// The same behavioural suite runs over both transports.
enum class TransportKind { channel, tcp };

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    if (GetParam() == TransportKind::channel) {
      auto lr = ChannelFabric::instance().listen("test-" + generate_token(8));
      ASSERT_TRUE(lr.ok());
      listener_ = std::move(*lr);
    } else {
      auto lr = tcp_listen(0);
      ASSERT_TRUE(lr.ok());
      listener_ = std::move(*lr);
    }
  }

  std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> connect_pair() {
    std::unique_ptr<Endpoint> client, server;
    std::thread t([&] {
      auto s = listener_->accept(2000ms);
      if (s.ok()) server = std::move(*s);
    });
    auto c = connect_to(listener_->address(), 2000ms);
    t.join();
    EXPECT_TRUE(c.ok()) << (c.ok() ? "" : c.error().to_string());
    return {std::move(*c), std::move(server)};
  }

  std::unique_ptr<Listener> listener_;
};

TEST_P(TransportTest, ConnectSendReceive) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);

  json::Object o;
  o["type"] = "hello";
  o["cores"] = 4;
  ASSERT_TRUE(client->send_json(json::Value(o)).ok());

  auto f = server->recv(2000ms);
  ASSERT_TRUE(f.ok()) << f.error().to_string();
  EXPECT_EQ(f->msg.get_string("type"), "hello");
  EXPECT_EQ(f->msg.get_int("cores"), 4);
}

TEST_P(TransportTest, BidirectionalTraffic) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  ASSERT_TRUE(client->send_json(json::Value(json::Object{{"n", json::Value(1)}})).ok());
  ASSERT_TRUE(server->send_json(json::Value(json::Object{{"n", json::Value(2)}})).ok());
  EXPECT_EQ(server->recv(2000ms)->msg.get_int("n"), 1);
  EXPECT_EQ(client->recv(2000ms)->msg.get_int("n"), 2);
}

TEST_P(TransportTest, LargeBlobTransfer) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  std::string big(5 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);

  std::thread sender([&] { ASSERT_TRUE(client->send_blob("big", big).ok()); });
  auto f = server->recv(10000ms);
  sender.join();
  ASSERT_TRUE(f.ok()) << f.error().to_string();
  EXPECT_EQ(f->tag, "big");
  EXPECT_EQ(f->data, big);
}

TEST_P(TransportTest, ManyFramesInOrder) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  constexpr int kN = 200;
  std::thread sender([&] {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          client->send_json(json::Value(json::Object{{"i", json::Value(i)}})).ok());
    }
  });
  for (int i = 0; i < kN; ++i) {
    auto f = server->recv(2000ms);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->msg.get_int("i"), i);
  }
  sender.join();
}

TEST_P(TransportTest, RecvTimesOutWhenIdle) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  auto f = server->recv(50ms);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, Errc::timeout);
}

TEST_P(TransportTest, CloseUnblocksPeer) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  client->close();
  auto f = server->recv(2000ms);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.error().code, Errc::unavailable);
}

TEST_P(TransportTest, SendAfterPeerCloseFails) {
  auto [client, server] = connect_pair();
  ASSERT_TRUE(client && server);
  server->close();
  // Possibly one buffered send succeeds (TCP); eventually it must fail.
  bool failed = false;
  for (int i = 0; i < 50 && !failed; ++i) {
    auto st = client->send_json(json::Value(json::Object{}));
    failed = !st.ok();
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(failed);
}

TEST_P(TransportTest, AcceptTimesOut) {
  auto r = listener_->accept(50ms);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
}

TEST_P(TransportTest, MultipleClients) {
  constexpr int kClients = 5;
  std::vector<std::unique_ptr<Endpoint>> servers;
  std::thread acceptor([&] {
    for (int i = 0; i < kClients; ++i) {
      auto s = listener_->accept(2000ms);
      ASSERT_TRUE(s.ok());
      servers.push_back(std::move(*s));
    }
  });
  std::vector<std::unique_ptr<Endpoint>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = connect_to(listener_->address(), 2000ms);
    ASSERT_TRUE(c.ok());
    (*c)->send_json(json::Value(json::Object{{"id", json::Value(i)}}));
    clients.push_back(std::move(*c));
  }
  acceptor.join();
  std::vector<bool> seen(kClients, false);
  for (auto& s : servers) {
    auto f = s->recv(2000ms);
    ASSERT_TRUE(f.ok());
    seen[static_cast<std::size_t>(f->msg.get_int("id"))] = true;
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values(TransportKind::channel,
                                           TransportKind::tcp),
                         [](const auto& info) {
                           return info.param == TransportKind::channel ? "Channel"
                                                                       : "Tcp";
                         });

// ------------------------------------------------------- push delivery

/// What a receiver callback was handed, in order: each frame's tag, and
/// "error" for the terminal error.
class Received {
 public:
  std::function<void(Result<Frame>)> receiver() {
    return [this](Result<Frame> f) {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(f.ok() ? f->tag : "error");
      cv_.notify_all();
    };
  }

  bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 2000ms, [&] { return items_.size() >= n; });
  }

  std::vector<std::string> items() {
    std::lock_guard<std::mutex> lock(mu_);
    return items_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> items_;
};

class PushDeliveryTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  /// A connected {client, server} pair: make_channel_pair, or TCP loopback.
  std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>> make_pair() {
    if (GetParam() == TransportKind::channel) {
      return make_channel_pair("client", "server");
    }
    auto listener = tcp_listen(0);
    EXPECT_TRUE(listener.ok());
    auto client = tcp_connect((*listener)->address(), 2000ms);
    auto server = (*listener)->accept(2000ms);
    EXPECT_TRUE(client.ok() && server.ok());
    return {std::move(*client), std::move(*server)};
  }
};

TEST_P(PushDeliveryTest, ReceiverContract) {
  const std::vector<std::string> first{"0", "1", "2", "3", "4", "5"};
  {
    // Frames sent before set_receiver drain first, in order; later ones
    // follow. A local close ends the stream with exactly one terminal
    // error, and no callback runs once close() has returned.
    Received got;  // declared first: it must outlive both endpoints
    auto [client, server] = make_pair();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(client->send_blob(first[i], "x").ok());
    std::this_thread::sleep_for(20ms);  // let the transport buffer them
    server->set_receiver(got.receiver());
    for (int i = 3; i < 6; ++i) ASSERT_TRUE(client->send_blob(first[i], "x").ok());
    ASSERT_TRUE(got.wait_for(first.size()));

    std::atomic<bool> stop{false};
    std::thread sender([&, &client = client] {
      while (!stop.load() && client->send_blob("late", "x").ok()) {
        std::this_thread::sleep_for(100us);
      }
    });
    std::this_thread::sleep_for(5ms);
    server->close();
    const std::size_t at_close = got.items().size();
    std::this_thread::sleep_for(50ms);
    stop.store(true);
    sender.join();

    auto items = got.items();
    EXPECT_EQ(items.size(), at_close) << "callback ran after close() returned";
    ASSERT_GT(items.size(), first.size());
    EXPECT_EQ(std::vector<std::string>(items.begin(), items.begin() + 6), first);
    EXPECT_EQ(std::count(items.begin(), items.end(), "error"), 1);
    EXPECT_EQ(items.back(), "error");

    auto st = server->send_blob("t", "x");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::unavailable);
  }
  {
    // A peer close ends the stream the same way: one terminal error,
    // after the last frame.
    Received got;
    auto [client, server] = make_pair();
    server->set_receiver(got.receiver());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(client->send_blob(first[i], "x").ok());
    ASSERT_TRUE(got.wait_for(3));
    client->close();
    ASSERT_TRUE(got.wait_for(4));
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(got.items(), (std::vector<std::string>{"0", "1", "2", "error"}));

    auto st = client->send_blob("t", "x");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Errc::unavailable);
  }
  {
    // On a connection whose peer already closed, set_receiver delivers the
    // terminal error before it returns.
    Received got;
    auto [client, server] = make_pair();
    client->close();
    auto f = server->recv(2000ms);  // the transport has seen the close
    ASSERT_FALSE(f.ok());
    ASSERT_EQ(f.error().code, Errc::unavailable);
    server->set_receiver(got.receiver());
    EXPECT_EQ(got.items(), std::vector<std::string>{"error"});
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, PushDeliveryTest,
                         ::testing::Values(TransportKind::channel,
                                           TransportKind::tcp),
                         [](const auto& info) {
                           return info.param == TransportKind::channel ? "Channel"
                                                                       : "Tcp";
                         });

// ---------------------------------------------------------------- misc

TEST(ConnectTo, UnknownChannelFails) {
  auto r = connect_to("chan:never-registered", 50ms);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::unavailable);
}

TEST(ConnectTo, BadTcpAddressFails) {
  EXPECT_FALSE(connect_to("not-an-address", 50ms).ok());
  EXPECT_FALSE(connect_to("1.2.3.4.5:99", 50ms).ok());
  EXPECT_FALSE(connect_to("127.0.0.1:notaport", 50ms).ok());
}

// -------------------------------------------------- idle/stall timeouts (S2)

TEST(TcpTimeout, DeadSilentPeerSurfacesTimeout) {
  // A peer that connects and never writes anything must surface
  // Errc::timeout from recv() promptly, not block forever.
  auto listener = tcp_listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = tcp_connect((*listener)->address(), 1000ms);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->accept(1000ms);
  ASSERT_TRUE(server.ok());

  auto start = std::chrono::steady_clock::now();
  auto r = (*server)->recv(200ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_GE(elapsed, 150ms);
  EXPECT_LT(elapsed, 2000ms);
}

TEST(TcpTimeout, MidFrameStallSurfacesTimeoutNotWedge) {
  // The nastier case: the peer sends a frame *header* promising 100 bytes,
  // then goes dead silent. Without the io timeout the receiver would sit
  // in the mid-frame continuation loop for the default 60 s. Endpoint
  // sends are frame-atomic, so the torn frame is written through a raw
  // socket (fine in tests; vine_lint bans raw IO in src/ only).
  auto listener = tcp_listen(0);
  ASSERT_TRUE(listener.ok());
  const std::string addr = (*listener)->address();
  const auto colon = addr.rfind(':');
  ASSERT_NE(colon, std::string::npos);
  const int port = std::stoi(addr.substr(colon + 1));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  auto server = (*listener)->accept(1000ms);
  ASSERT_TRUE(server.ok());
  (*server)->set_io_timeout(150ms);

  // u32 LE payload length (100) + kind 'J' — then silence.
  const char header[5] = {'\x64', '\x00', '\x00', '\x00', 'J'};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));

  auto start = std::chrono::steady_clock::now();
  auto r = (*server)->recv(5000ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  EXPECT_LT(elapsed, 3000ms);  // far below the 60 s default window
  ::close(fd);
}

TEST(ChannelFabricTest, DuplicateNameRejected) {
  auto name = "dup-" + generate_token(8);
  auto l1 = ChannelFabric::instance().listen(name);
  ASSERT_TRUE(l1.ok());
  auto l2 = ChannelFabric::instance().listen(name);
  EXPECT_FALSE(l2.ok());
  // After closing, the name can be reused.
  (*l1)->close();
  auto l3 = ChannelFabric::instance().listen(name);
  EXPECT_TRUE(l3.ok());
}

}  // namespace
}  // namespace vine
