// Tests for the network request plane (asamap::net): the framing codec
// (round-trip, truncation, oversize, garbage, fuzzed split points), the
// SPSC handoff ring (semantics + a two-thread stress that is the TSAN
// target for the socket->worker edge), and the epoll server end to end
// over real loopback sockets — text/binary autodetect, partial-frame
// reassembly across wakeups, pipelined batches, the multi-line response
// envelope over TCP, per-connection QUIT, a throwing handler answered with
// ERR internal, and clean stop().

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "asamap/net/frame.hpp"
#include "asamap/net/server.hpp"
#include "asamap/net/spsc_ring.hpp"
#include "asamap/obs/metrics.hpp"
#include "asamap/serve/handler.hpp"
#include "asamap/serve/session.hpp"

namespace {

using namespace asamap;
using namespace asamap::net;

// --- framing codec -------------------------------------------------------

std::string framed(std::string_view payload) {
  std::string out;
  append_frame(payload, out);
  return out;
}

TEST(Frame, BinaryRoundTrip) {
  const std::string wire = framed("MEMBER g 5");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 10);
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), kFrameMagic);
  const Decoded d = decode_one(wire);
  ASSERT_EQ(d.status, DecodeStatus::kBinary);
  EXPECT_EQ(d.payload, "MEMBER g 5");
  EXPECT_EQ(d.consumed, wire.size());
}

TEST(Frame, TextRoundTripStripsCr) {
  const Decoded lf = decode_one("TOPK g 3\nrest");
  ASSERT_EQ(lf.status, DecodeStatus::kText);
  EXPECT_EQ(lf.payload, "TOPK g 3");
  EXPECT_EQ(lf.consumed, 9u);

  const Decoded crlf = decode_one("TOPK g 3\r\n");
  ASSERT_EQ(crlf.status, DecodeStatus::kText);
  EXPECT_EQ(crlf.payload, "TOPK g 3");
  EXPECT_EQ(crlf.consumed, 10u);
}

TEST(Frame, EmptyPayloadsAreValid) {
  const Decoded text = decode_one("\n");
  EXPECT_EQ(text.status, DecodeStatus::kText);
  EXPECT_EQ(text.payload, "");
  const Decoded bin = decode_one(framed(""));
  EXPECT_EQ(bin.status, DecodeStatus::kBinary);
  EXPECT_EQ(bin.payload, "");
  EXPECT_EQ(bin.consumed, kFrameHeaderBytes);
}

TEST(Frame, TruncatedInputsNeedMoreAndConsumeNothing) {
  const std::string wire = framed("SUMMARY g");
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const Decoded d = decode_one(std::string_view(wire).substr(0, cut));
    EXPECT_EQ(d.status, DecodeStatus::kNeedMore) << "cut=" << cut;
    EXPECT_EQ(d.consumed, 0u);
  }
  EXPECT_EQ(decode_one("MEMBER g 5").status, DecodeStatus::kNeedMore)
      << "text without newline is incomplete";
}

TEST(Frame, OversizedAndGarbageLengthsAreErrors) {
  // A length header past the cap can never become a valid message — the
  // decoder must fail fast instead of waiting for 4 GiB.
  std::string wire;
  wire.push_back(static_cast<char>(kFrameMagic));
  const std::uint32_t huge = 0x7fffffff;
  wire.append(reinterpret_cast<const char*>(&huge), 4);  // LE on test hosts
  const Decoded d = decode_one(wire);
  ASSERT_EQ(d.status, DecodeStatus::kError);
  EXPECT_NE(std::string_view(d.error).find("length"),
            std::string_view::npos);

  // An unterminated text line past the cap is equally unrecoverable.
  std::string long_text(kMaxMessageBytes + 2, 'A');
  EXPECT_EQ(decode_one(long_text).status, DecodeStatus::kError);
}

TEST(Frame, FuzzRoundTripAcrossRandomSplitPoints) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> len_dist(0, 200);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 500; ++iter) {
    // A run of random messages: binary frames carry arbitrary bytes
    // (including 0xA5 and '\n'), text lines printable ASCII.
    std::string wire;
    std::vector<std::pair<std::string, bool>> expect;  // payload, binary
    for (int m = 0; m < 8; ++m) {
      if (rng() % 2 == 0) {
        std::string payload(static_cast<std::size_t>(len_dist(rng)), '\0');
        for (char& c : payload) c = static_cast<char>(byte_dist(rng));
        append_frame(payload, wire);
        expect.emplace_back(std::move(payload), true);
      } else {
        std::string payload(static_cast<std::size_t>(len_dist(rng)), '\0');
        for (char& c : payload) {
          c = static_cast<char>('a' + (byte_dist(rng) % 26));
        }
        wire += payload;
        wire += '\n';
        expect.emplace_back(std::move(payload), false);
      }
    }
    // Feed the wire in random-sized chunks, decoding as a transport would.
    std::string buf;
    std::size_t fed = 0;
    std::size_t seen = 0;
    while (seen < expect.size()) {
      if (fed < wire.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng() % 40, wire.size() - fed);
        buf.append(wire, fed, chunk);
        fed += chunk;
      }
      for (;;) {
        const Decoded d = decode_one(buf);
        if (d.status == DecodeStatus::kNeedMore) break;
        ASSERT_NE(d.status, DecodeStatus::kError);
        ASSERT_LT(seen, expect.size());
        EXPECT_EQ(d.payload, expect[seen].first);
        EXPECT_EQ(d.status == DecodeStatus::kBinary, expect[seen].second);
        buf.erase(0, d.consumed);
        ++seen;
      }
    }
    EXPECT_TRUE(buf.empty());
  }
}

// --- SPSC ring -----------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
}

TEST(SpscRing, FifoOrderAndRejectWhenFull) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int overflow = 99;
  EXPECT_FALSE(ring.try_push(overflow));  // full: reject, don't block
  EXPECT_EQ(overflow, 99);                // rejected item untouched
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
  // Wrap around: indices keep counting past capacity.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(int{i}));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, i);
    }
  }
}

// Two real threads hammering one ring — the TSAN target for the
// socket->worker handoff.  Move-only-ish payloads (strings) exercise the
// slot move paths, and the consumer checks strict FIFO.
TEST(SpscRingStress, TwoThreadsPreserveOrderUnderContention) {
  constexpr int kItems = 200000;
  SpscRing<std::string> ring(64);
  std::atomic<bool> failed{false};
  std::thread consumer([&] {
    std::string item;
    for (int expected = 0; expected < kItems;) {
      if (!ring.try_pop(item)) {
        std::this_thread::yield();
        continue;
      }
      if (item != std::to_string(expected)) {
        failed.store(true);
        return;
      }
      ++expected;
    }
  });
  for (int i = 0; i < kItems; ++i) {
    std::string item = std::to_string(i);
    while (!ring.try_push(std::move(item))) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
}

// --- end to end over loopback sockets ------------------------------------

serve::SessionConfig net_test_config() {
  serve::SessionConfig config;
  config.cluster_threads = 1;
  config.scheduler.workers = 2;
  return config;
}

/// A blocking test client speaking both encodings, decoding responses with
/// the same frame codec the server uses.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    timeval tv{10, 0};  // a hung test should fail, not wedge CI
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  void send_raw(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t r =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(r, 0);
      off += static_cast<std::size_t>(r);
    }
  }
  void send_text(std::string_view line) {
    std::string msg(line);
    msg += '\n';
    send_raw(msg);
  }
  void send_binary(std::string_view payload) {
    std::string msg;
    append_frame(payload, msg);
    send_raw(msg);
  }

  /// Reads one response message; false on EOF/timeout.
  bool read_message(std::string& payload, bool* binary = nullptr) {
    for (;;) {
      const Decoded d = decode_one(buf_);
      if (d.status == DecodeStatus::kText ||
          d.status == DecodeStatus::kBinary) {
        payload.assign(d.payload);
        if (binary != nullptr) *binary = d.status == DecodeStatus::kBinary;
        buf_.erase(0, d.consumed);
        return true;
      }
      if (d.status == DecodeStatus::kError) return false;
      char chunk[4096];
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

  /// True when the server closed the connection (EOF) with nothing pending.
  bool at_eof() {
    if (!buf_.empty()) return false;
    char byte;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<serve::ServeSession>(net_test_config());
    NetConfig config;
    config.workers = 2;  // exercise the multi-worker affinity path
    server_ = std::make_unique<NetServer>(*session_, config);
    ASSERT_TRUE(server_->start().ok());
    ASSERT_NE(server_->port(), 0);
    // Shared fixture graph, clustered once.
    ASSERT_EQ(session_->handle_line("GEN g 500 2000 7").substr(0, 2), "OK");
    ASSERT_EQ(session_->handle_line("CLUSTER g sync").substr(0, 2), "OK");
  }

  std::unique_ptr<serve::ServeSession> session_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, TextAndBinaryAutodetectPerMessage) {
  TestClient client(server_->port());
  client.send_text("MEMBER g 5");
  client.send_binary("SAME g 1 2");
  client.send_text("TOPK g 3\r");  // CRLF client

  std::string resp;
  bool binary = false;
  ASSERT_TRUE(client.read_message(resp, &binary));
  EXPECT_FALSE(binary);  // text request -> text response
  EXPECT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
  ASSERT_TRUE(client.read_message(resp, &binary));
  EXPECT_TRUE(binary);  // binary request -> binary response
  EXPECT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
  ASSERT_TRUE(client.read_message(resp, &binary));
  EXPECT_FALSE(binary);
  EXPECT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
}

TEST_F(NetServerTest, PartialFrameReassemblyAcrossWakeups) {
  TestClient client(server_->port());
  std::string wire;
  append_frame("SUMMARY g", wire);
  // Dribble the frame one byte at a time: every byte is (typically) its
  // own epoll wakeup, so the connection's read buffer must reassemble.
  for (const char c : wire) {
    client.send_raw(std::string_view(&c, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string resp;
  bool binary = false;
  ASSERT_TRUE(client.read_message(resp, &binary));
  EXPECT_TRUE(binary);
  EXPECT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
}

TEST_F(NetServerTest, PipelinedBurstAnswersInOrderSameVersion) {
  TestClient client(server_->port());
  constexpr int kBurst = 64;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    append_frame(i % 2 == 0 ? std::string_view("MEMBER g 3")
                            : std::string_view("SUMMARY g"),
                 wire);
  }
  client.send_raw(wire);  // one write: the whole burst pipelines

  std::string resp;
  std::string version;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.read_message(resp)) << "response " << i;
    ASSERT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
    const std::string v = resp.substr(3, resp.find(' ', 3) - 3);
    if (i == 0) {
      version = v;
    } else {
      EXPECT_EQ(v, version) << "response " << i;
    }
    // Order: MEMBER and SUMMARY alternate exactly as sent.
    const bool is_member = resp.find(" vertex=") != std::string::npos;
    EXPECT_EQ(is_member, i % 2 == 0) << resp;
  }
}

TEST_F(NetServerTest, MultiLineEnvelopeSurvivesTcp) {
  TestClient client(server_->port());
  client.send_binary("METRICS");
  std::string resp;
  bool binary = false;
  ASSERT_TRUE(client.read_message(resp, &binary));
  EXPECT_TRUE(binary);
  ASSERT_EQ(resp.rfind("OK format=prometheus bytes=", 0), 0u);
  // bytes=N describes exactly the payload after the header line, so a
  // client can carve an embedded-newline payload out of the frame.
  const std::size_t nl = resp.find('\n');
  const std::size_t declared = std::stoull(resp.substr(27, nl - 27));
  EXPECT_EQ(declared, resp.size() - nl - 1);
  EXPECT_NE(resp.find("asamap_net_connections_total"), std::string::npos);
}

TEST_F(NetServerTest, QuitClosesOnlyThatConnection) {
  TestClient quitter(server_->port());
  TestClient survivor(server_->port());
  quitter.send_text("QUIT");
  std::string resp;
  ASSERT_TRUE(quitter.read_message(resp));
  EXPECT_EQ(resp, "OK bye");
  EXPECT_TRUE(quitter.at_eof());  // server closed the quitter...
  survivor.send_text("MEMBER g 5");
  ASSERT_TRUE(survivor.read_message(resp));  // ...and nobody else
  EXPECT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
}

TEST_F(NetServerTest, OversizedFrameGetsErrorThenClose) {
  TestClient client(server_->port());
  std::string wire;
  wire.push_back(static_cast<char>(kFrameMagic));
  const std::uint32_t huge = 0x7fffffff;
  wire.append(reinterpret_cast<const char*>(&huge), 4);
  client.send_raw(wire);
  std::string resp;
  ASSERT_TRUE(client.read_message(resp));
  EXPECT_EQ(resp.rfind("ERR invalid_argument", 0), 0u) << resp;
  EXPECT_TRUE(client.at_eof());  // an unsyncable stream must be dropped
}

TEST_F(NetServerTest, HalfCloseStillDeliversPipelinedAnswers) {
  TestClient client(server_->port());
  std::string wire;
  for (int i = 0; i < 8; ++i) append_frame("MEMBER g 1", wire);
  client.send_raw(wire);
  client.shutdown_write();  // burst-and-shutdown client
  std::string resp;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.read_message(resp)) << "response " << i;
    EXPECT_EQ(resp.rfind("OK version=", 0), 0u) << resp;
  }
  EXPECT_TRUE(client.at_eof());
}

TEST_F(NetServerTest, NetMetricsAreRegisteredAndCount) {
  {
    TestClient client(server_->port());
    client.send_text("MEMBER g 5");
    client.send_binary("MEMBER g 6");
    std::string resp;
    ASSERT_TRUE(client.read_message(resp));
    ASSERT_TRUE(client.read_message(resp));
  }
  const obs::MetricRegistry& reg = session_->metrics();
  EXPECT_GE(reg.counter_total("asamap_net_connections_total"), 1u);
  EXPECT_GE(
      reg.counter_total("asamap_net_requests_total", "proto=\"text\""), 1u);
  EXPECT_GE(
      reg.counter_total("asamap_net_requests_total", "proto=\"binary\""),
      1u);
  EXPECT_GE(reg.counter_total("asamap_net_batches_total"), 1u);
  EXPECT_GE(reg.counter_total("asamap_net_bytes_total", "dir=\"read\""), 1u);
  // The server counts written bytes after send() returns, so the reply can
  // reach the client before the increment lands: poll for it, bounded.
  const auto written = [&reg] {
    return reg.counter_total("asamap_net_bytes_total", "dir=\"written\"");
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (written() < 1u && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(written(), 1u);
}

TEST_F(NetServerTest, StopDisconnectsClientsAndIsIdempotent) {
  TestClient client(server_->port());
  client.send_text("MEMBER g 5");
  std::string resp;
  ASSERT_TRUE(client.read_message(resp));
  server_->stop();
  EXPECT_TRUE(client.at_eof());
  server_->stop();  // idempotent
  EXPECT_FALSE(server_->running());
}

/// Echoes each line back as `OK <line>`, except that a `BOOM` line throws —
/// a handler that breaks its never-throws contract.
class ThrowingHandler final : public serve::RequestHandler {
 public:
  std::string handle_line(std::string_view line) override {
    if (line == "BOOM") throw std::runtime_error("boom\nsecond line");
    return "OK " + std::string(line);
  }
  obs::MetricRegistry& metrics() noexcept override { return metrics_; }

 private:
  obs::MetricRegistry metrics_;
};

TEST(NetServerHandlerFault, ThrowingBatchGetsErrAndConnectionSurvives) {
  ThrowingHandler handler;
  NetServer server(handler);
  ASSERT_TRUE(server.start().ok());
  TestClient client(server.port());
  std::string resp;
  client.send_text("BOOM");
  ASSERT_TRUE(client.read_message(resp));
  EXPECT_EQ(resp, "ERR internal boom second line");
  client.send_text("PING");
  ASSERT_TRUE(client.read_message(resp));
  EXPECT_EQ(resp, "OK PING");
  EXPECT_TRUE(server.running());
  server.stop();
}

// Many concurrent connections pipelining against both workers while a
// writer republishes — the TSAN stress for the whole plane.
TEST_F(NetServerTest, ConcurrentConnectionsUnderRepublish) {
  constexpr int kClients = 4;
  constexpr int kRequests = 50;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      session_->handle_line("CLUSTER g sync");
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server_->port());
      std::string resp;
      for (int i = 0; i < kRequests; ++i) {
        if (c % 2 == 0) {
          client.send_binary("MEMBER g 3");
        } else {
          client.send_text("SUMMARY g");
        }
        if (!client.read_message(resp) || resp.rfind("OK", 0) != 0) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
