// EventServer integration tests: an in-process epoll server on an
// ephemeral loopback port, driven through real TCP sockets in both wire
// modes — the same code path tools/remi_server.cc serves, minus the flag
// parsing. ndjson_server_test.cc covers the NDJSON verbs one by one.

#include "service/event_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/frame_codec.h"
#include "service/json_codec.h"
#include "service/socket_util.h"
#include "test_support.h"
#include "util/io_hooks.h"
#include "util/json.h"

#ifndef REMI_TESTDATA_DIR
#define REMI_TESTDATA_DIR "tests/data"
#endif

namespace remi {
namespace {

/// A blocking client over one TCP connection, usable for both wire modes
/// (raw byte send plus line- and frame-oriented reads).
class TestClient {
 public:
  explicit TestClient(int port) {
    auto fd = ConnectTo("127.0.0.1", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (fd.ok()) fd_ = *fd;
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  void SendRaw(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Sends the bytes one at a time — the adversarial recv-boundary case.
  void SendByteByByte(std::string_view data) {
    for (const char byte : data) {
      SendRaw(std::string_view(&byte, 1));
    }
  }

  void SendLine(const std::string& request) { SendRaw(request + "\n"); }

  void SendFrame(FrameVerb verb, uint64_t request_id,
                 const std::string& payload) {
    std::string wire;
    AppendFrame(static_cast<uint8_t>(verb), request_id, payload, &wire);
    SendRaw(wire);
  }

  /// Reads one response line (fails the test on EOF).
  std::string ReadLine() {
    std::string line;
    char c = 0;
    while (recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    ADD_FAILURE() << "connection closed before a full response line";
    return line;
  }

  /// Reads one complete response frame.
  bool ReadFrame(uint8_t* verb, uint64_t* request_id, std::string* payload) {
    char chunk[4096];
    for (;;) {
      FrameView frame;
      const auto result = decoder_.Next(&frame);
      if (result == FrameDecoder::Result::kFrame) {
        *verb = frame.verb;
        *request_id = frame.request_id;
        payload->assign(frame.payload.data(), frame.payload.size());
        return true;
      }
      if (result == FrameDecoder::Result::kError) return false;
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      decoder_.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    }
  }

  /// True iff the server closed its end (clean EOF).
  bool AtEof() {
    char c = 0;
    return recv(fd_, &c, 1, 0) == 0;
  }

  void ShutdownWrite() { shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  FrameDecoder decoder_{64u << 20};
};

/// Blocks every server-side send with EAGAIN while leaving reads (and
/// the test client's raw syscalls) untouched — simulates a peer whose
/// receive window never opens.
class BlockSends : public io::IoHooks {
 public:
  ssize_t Send(int fd, const void* buf, size_t len, int flags) override {
    (void)fd;
    (void)buf;
    (void)len;
    (void)flags;
    errno = EAGAIN;
    return -1;
  }
};

/// Passes accept4 through and records the last fd it returned: the
/// server's side of the newest connection.
class RecordAccepts : public io::IoHooks {
 public:
  int Accept4(int fd, struct sockaddr* addr, socklen_t* addrlen,
              int flags) override {
    const int accepted = io::IoHooks::Accept4(fd, addr, addrlen, flags);
    if (accepted >= 0) last_fd_.store(accepted, std::memory_order_release);
    return accepted;
  }
  int last_fd() const { return last_fd_.load(std::memory_order_acquire); }

 private:
  std::atomic<int> last_fd_{-1};
};

class EventServerTest : public ::testing::Test {
 protected:
  void StartServer(const EventServerOptions& options = {}) {
    KbSpec spec;
    spec.path = std::string(REMI_TESTDATA_DIR) + "/smoke.nt";
    auto service = Service::Open(spec);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(*service);
    server_ = std::make_unique<EventServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  JsonValue Parse(const std::string& doc) {
    auto parsed = ParseJson(doc);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << ": " << doc;
    return parsed.ok() ? *parsed : JsonValue();
  }

  // A peer observes EOF the instant the fd closes, a beat before the
  // loop thread decrements the connection count — poll, don't assert.
  void ExpectConnectionsDrain() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (server_->open_connections() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server_->open_connections(), 0u);
  }

  // Hooks a test installs with `hooks_.emplace(&...)`. Members, never
  // stack locals: the loop thread may still be inside a hook after the
  // table is restored, so the objects must outlive the server. Declared
  // before the server, they are destroyed after TearDown's Stop() and
  // after `hooks_` restores the previous table.
  BlockSends block_sends_;
  RecordAccepts record_accepts_;
  std::optional<io::ScopedHooks> hooks_;

  std::unique_ptr<Service> service_;
  std::unique_ptr<EventServer> server_;
};

TEST_F(EventServerTest, NdjsonDebugModeServesTheLineProtocol) {
  StartServer();
  TestClient client(server_->port());

  client.SendLine(R"({"op":"ping"})");
  EXPECT_EQ(Parse(client.ReadLine()).Find("status")->AsString(), "OK");

  client.SendLine(R"({"op":"mine","targets":["Berlin"],"verbalize":true})");
  JsonValue mine = Parse(client.ReadLine());
  EXPECT_EQ(mine.Find("status")->AsString(), "OK");
  EXPECT_TRUE(mine.Find("found")->AsBool());
}

TEST_F(EventServerTest, AcceptedSocketsRunWithNoDelay) {
  StartServer();
  hooks_.emplace(&record_accepts_);
  TestClient client(server_->port());
  // A served round trip proves the connection was accepted and set up.
  client.SendLine(R"({"op":"ping"})");
  EXPECT_EQ(Parse(client.ReadLine()).Find("status")->AsString(), "OK");

  const int server_fd = record_accepts_.last_fd();
  ASSERT_GE(server_fd, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(server_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST_F(EventServerTest, PipelinedNdjsonAcrossArbitraryRecvBoundaries) {
  StartServer();
  TestClient client(server_->port());

  // Several requests pipelined into one stream, delivered byte by byte:
  // the server sees every possible partial-line state.
  std::string stream;
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    stream += R"({"op":"ping"})";
    stream += "\n";
    stream += R"({"op":"summarize","entity":"Berlin","k":2})";
    stream += "\n";
  }
  client.SendByteByByte(stream);

  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(Parse(client.ReadLine()).Find("status")->AsString(), "OK");
    JsonValue summary = Parse(client.ReadLine());
    EXPECT_EQ(summary.Find("status")->AsString(), "OK");
    EXPECT_EQ(summary.Find("entity")->AsString(), "Berlin");
  }
}

TEST_F(EventServerTest, BinaryFramesAcrossArbitraryRecvBoundaries) {
  StartServer();
  TestClient client(server_->port());

  // Frame headers and payloads split at every byte boundary.
  std::string wire;
  AppendFrame(static_cast<uint8_t>(FrameVerb::kPing), 11, "", &wire);
  AppendFrame(static_cast<uint8_t>(FrameVerb::kSummarize), 12,
              R"({"entity":"Berlin","k":2})", &wire);
  client.SendByteByByte(wire);

  std::map<uint64_t, std::string> responses;
  for (int i = 0; i < 2; ++i) {
    uint8_t verb = 0;
    uint64_t id = 0;
    std::string payload;
    ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));
    responses[id] = payload;
    // Responses echo the request verb.
    EXPECT_EQ(verb, id == 11 ? static_cast<uint8_t>(FrameVerb::kPing)
                             : static_cast<uint8_t>(FrameVerb::kSummarize));
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(Parse(responses[11]).Find("status")->AsString(), "OK");
  JsonValue summary = Parse(responses[12]);
  EXPECT_EQ(summary.Find("status")->AsString(), "OK");
  EXPECT_EQ(summary.Find("entity")->AsString(), "Berlin");
}

TEST_F(EventServerTest, MultiplexedResponsesMatchedByRequestId) {
  EventServerOptions options;
  options.dispatch_threads = 4;
  StartServer(options);
  TestClient client(server_->port());

  // Many in-flight requests of mixed cost on ONE connection. Responses
  // may legally arrive in any order (that is the point of the id); the
  // test asserts the multiplexing contract — every id answered exactly
  // once, each response carrying its request's verb and a valid payload.
  const int kMines = 6;
  const int kPings = 6;
  for (int i = 0; i < kMines; ++i) {
    client.SendFrame(FrameVerb::kMine, 100 + static_cast<uint64_t>(i),
                     R"({"targets":["Berlin","Hamburg"]})");
  }
  for (int i = 0; i < kPings; ++i) {
    client.SendFrame(FrameVerb::kPing, 200 + static_cast<uint64_t>(i), "");
  }

  std::map<uint64_t, uint8_t> verbs;
  std::map<uint64_t, std::string> payloads;
  for (int i = 0; i < kMines + kPings; ++i) {
    uint8_t verb = 0;
    uint64_t id = 0;
    std::string payload;
    ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));
    EXPECT_EQ(verbs.count(id), 0u) << "duplicate response for id " << id;
    verbs[id] = verb;
    payloads[id] = payload;
  }
  ASSERT_EQ(verbs.size(), static_cast<size_t>(kMines + kPings));
  for (int i = 0; i < kMines; ++i) {
    const uint64_t id = 100 + static_cast<uint64_t>(i);
    EXPECT_EQ(verbs[id], static_cast<uint8_t>(FrameVerb::kMine));
    JsonValue mine = Parse(payloads[id]);
    EXPECT_EQ(mine.Find("status")->AsString(), "OK");
    EXPECT_TRUE(mine.Find("found")->AsBool());
  }
  for (int i = 0; i < kPings; ++i) {
    const uint64_t id = 200 + static_cast<uint64_t>(i);
    EXPECT_EQ(verbs[id], static_cast<uint8_t>(FrameVerb::kPing));
    EXPECT_EQ(Parse(payloads[id]).Find("status")->AsString(), "OK");
  }
}

TEST_F(EventServerTest, NdjsonAndBinaryResponsesAreByteIdentical) {
  StartServer();

  // Deterministic requests only (mine responses carry timing floats):
  // the response payload must be byte-identical across wire modes.
  const struct {
    FrameVerb verb;
    std::string payload;
  } kCases[] = {
      {FrameVerb::kPing, R"({"op":"ping"})"},
      {FrameVerb::kSummarize,
       R"({"op":"summarize","entity":"Berlin","k":3})"},
      {FrameVerb::kCandidates,
       R"({"op":"candidates","targets":["Berlin"],"limit":3})"},
      {FrameVerb::kMine,
       R"({"op":"mine","targets":["NoSuchEntityAnywhere"]})"},
  };
  for (const auto& test_case : kCases) {
    TestClient ndjson(server_->port());
    ndjson.SendLine(test_case.payload);
    const std::string line_response = ndjson.ReadLine();

    TestClient binary(server_->port());
    binary.SendFrame(test_case.verb, 1, test_case.payload);
    uint8_t verb = 0;
    uint64_t id = 0;
    std::string frame_response;
    ASSERT_TRUE(binary.ReadFrame(&verb, &id, &frame_response));
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(frame_response, line_response)
        << "wire modes disagree for " << test_case.payload;
  }
}

TEST_F(EventServerTest, UnknownVerbIsARequestLevelError) {
  StartServer();
  TestClient client(server_->port());
  client.SendFrame(static_cast<FrameVerb>(99), 7, "");
  uint8_t verb = 0;
  uint64_t id = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(Parse(payload).Find("status")->AsString(), "InvalidArgument");

  // The connection survives a request-level error.
  client.SendFrame(FrameVerb::kPing, 8, "");
  ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));
  EXPECT_EQ(id, 8u);
  EXPECT_EQ(Parse(payload).Find("status")->AsString(), "OK");
}

TEST_F(EventServerTest, OversizeFrameIsRejectedAndPoisonsTheStream) {
  EventServerOptions options;
  options.max_frame_payload_bytes = 1024;
  StartServer(options);
  TestClient client(server_->port());

  // A valid request first, so the poison provably flushes prior work.
  client.SendFrame(FrameVerb::kPing, 1, "");
  std::string oversize;
  AppendFrame(static_cast<uint8_t>(FrameVerb::kMine), 2,
              std::string(4096, 'x'), &oversize);
  client.SendRaw(oversize);

  std::map<uint64_t, std::string> responses;
  uint8_t verb = 0;
  uint64_t id = 0;
  std::string payload;
  while (client.ReadFrame(&verb, &id, &payload)) {
    responses[id] = payload;
  }
  // The admitted ping answered; the oversize frame rejected by id with a
  // stream-level error (verb 0); then EOF.
  ASSERT_EQ(responses.count(1), 1u);
  EXPECT_EQ(Parse(responses[1]).Find("status")->AsString(), "OK");
  ASSERT_EQ(responses.count(2), 1u);
  EXPECT_EQ(Parse(responses[2]).Find("status")->AsString(),
            "InvalidArgument");
  EXPECT_TRUE(client.AtEof());
}

TEST_F(EventServerTest, OversizeNdjsonLinePoisonsTheConnection) {
  EventServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);
  TestClient client(server_->port());

  // The oversize line arrives complete (newline included) in one burst:
  // the per-line check must reject it even though the leftover tail is
  // empty afterwards.
  std::string oversize = R"({"op":"ping","pad":")";
  oversize += std::string(512, 'x');
  oversize += "\"}";
  client.SendLine(oversize);
  JsonValue error = Parse(client.ReadLine());
  EXPECT_EQ(error.Find("status")->AsString(), "InvalidArgument");
  EXPECT_TRUE(client.AtEof());
}

TEST_F(EventServerTest, UnrecognizedProtocolIsRejected) {
  StartServer();
  TestClient client(server_->port());
  client.SendRaw("GET / HTTP/1.1\r\n\r\n");
  JsonValue error = Parse(client.ReadLine());
  EXPECT_EQ(error.Find("status")->AsString(), "InvalidArgument");
  EXPECT_TRUE(client.AtEof());
}

TEST_F(EventServerTest, BackpressureStillDeliversEverything) {
  EventServerOptions options;
  // A tiny write budget forces pause/resume cycles while the client
  // pipelines without reading.
  options.max_write_buffer_bytes = 512;
  StartServer(options);
  TestClient client(server_->port());

  const int kRequests = 64;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    AppendFrame(static_cast<uint8_t>(FrameVerb::kCandidates),
                static_cast<uint64_t>(i),
                R"({"targets":["Berlin"],"limit":5})", &wire);
  }
  // Send everything first, read only afterwards: responses far exceed
  // the write budget, so the server must pause reads and resume as the
  // client drains.
  test::JoiningThread sender([&] { client.SendRaw(wire); },
                             [&] { client.ShutdownWrite(); });
  std::map<uint64_t, std::string> responses;
  uint8_t verb = 0;
  uint64_t id = 0;
  std::string payload;
  while (responses.size() < static_cast<size_t>(kRequests)) {
    ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));
    EXPECT_EQ(responses.count(id), 0u);
    responses[id] = payload;
  }
  sender.join();
  for (const auto& [response_id, doc] : responses) {
    EXPECT_EQ(Parse(doc).Find("status")->AsString(), "OK")
        << "id " << response_id;
  }
}

TEST_F(EventServerTest, DrainUnderLoadFlushesAdmittedRequests) {
  EventServerOptions options;
  options.dispatch_threads = 2;
  StartServer(options);
  TestClient binary(server_->port());
  TestClient ndjson(server_->port());

  // Load both wire modes, then drain while responses are in flight.
  const int kFrames = 4;
  for (int i = 0; i < kFrames; ++i) {
    binary.SendFrame(FrameVerb::kMine, static_cast<uint64_t>(i),
                     R"({"targets":["Berlin"]})");
  }
  ndjson.SendLine(R"({"op":"summarize","entity":"Berlin","k":3})");

  test::JoiningThread drainer([&] { EXPECT_TRUE(server_->Drain(30.0)); });

  // Every admitted request's response must still arrive, then EOF.
  std::map<uint64_t, std::string> responses;
  uint8_t verb = 0;
  uint64_t id = 0;
  std::string payload;
  while (responses.size() < static_cast<size_t>(kFrames) &&
         binary.ReadFrame(&verb, &id, &payload)) {
    responses[id] = payload;
  }
  ASSERT_EQ(responses.size(), static_cast<size_t>(kFrames));
  for (const auto& [response_id, doc] : responses) {
    EXPECT_EQ(Parse(doc).Find("status")->AsString(), "OK")
        << "id " << response_id;
  }
  EXPECT_TRUE(binary.AtEof());

  JsonValue summary = Parse(ndjson.ReadLine());
  EXPECT_EQ(summary.Find("status")->AsString(), "OK");
  EXPECT_TRUE(ndjson.AtEof());

  drainer.join();
  server_.reset();  // already stopped by Drain
}

TEST_F(EventServerTest, CountersVerbExportsServiceCounters) {
  StartServer();
  TestClient client(server_->port());
  client.SendFrame(FrameVerb::kMine, 1, R"({"targets":["Berlin"]})");
  uint8_t verb = 0;
  uint64_t id = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));

  client.SendFrame(FrameVerb::kCounters, 2, "");
  ASSERT_TRUE(client.ReadFrame(&verb, &id, &payload));
  EXPECT_EQ(id, 2u);
  JsonValue counters = Parse(payload);
  EXPECT_EQ(counters.Find("status")->AsString(), "OK");
  EXPECT_GE(counters.Find("admitted")->AsNumber(), 1.0);
  EXPECT_GE(counters.Find("completed_ok")->AsNumber(), 1.0);
  // The new aggregates: one mine visited nodes and took measurable time.
  EXPECT_GT(counters.Find("nodes_visited_total")->AsNumber(), 0.0);
  ASSERT_NE(counters.Find("mine_micros_total"), nullptr);
  ASSERT_NE(counters.Find("accept_errors_retried"), nullptr);
  ASSERT_NE(counters.Find("accept_errors_fatal"), nullptr);
}

TEST_F(EventServerTest, EofWithPipelinedRequestsStillAnswersThem) {
  StartServer();
  TestClient client(server_->port());
  std::string wire;
  for (uint64_t id = 1; id <= 4; ++id) {
    AppendFrame(static_cast<uint8_t>(FrameVerb::kPing), id, "", &wire);
  }
  client.SendRaw(wire);
  client.ShutdownWrite();  // half-close: EOF after the pipelined bytes

  std::map<uint64_t, std::string> responses;
  uint8_t verb = 0;
  uint64_t id = 0;
  std::string payload;
  while (client.ReadFrame(&verb, &id, &payload)) {
    responses[id] = payload;
  }
  EXPECT_EQ(responses.size(), 4u);
}

// --- connection lifecycle timeouts ------------------------------------------

TEST_F(EventServerTest, SlowLorisPartialRequestIsReapedOnIdleTimeout) {
  EventServerOptions options;
  options.idle_timeout_ms = 120;
  StartServer(options);
  TestClient loris(server_->port());
  // A torn NDJSON request that never completes: no newline, then
  // silence. Without the idle timeout this connection lives forever.
  loris.SendRaw(R"({"op":"pi)");

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(loris.AtEof());  // blocks until the server reaps us
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "reap took too long";
  EXPECT_EQ(service_->counters().connections_reaped_idle, 1u);
  EXPECT_EQ(service_->counters().connections_reaped_write_stall, 0u);
  ExpectConnectionsDrain();
}

TEST_F(EventServerTest, SlowLorisReapLeavesHealthyPeersUnaffected) {
  EventServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  TestClient loris(server_->port());
  loris.SendRaw("R");  // a torn binary frame header, then silence

  // A healthy peer keeps round-tripping the whole time the loris ages
  // out; every request must answer promptly (its activity clock resets
  // per round trip, so it is never reaped).
  TestClient healthy(server_->port());
  std::atomic<bool> loris_gone{false};
  test::JoiningThread watcher([&] { loris_gone.store(loris.AtEof()); });
  for (int i = 0; i < 20; ++i) {
    healthy.SendLine(R"({"op":"ping"})");
    EXPECT_EQ(Parse(healthy.ReadLine()).Find("status")->AsString(), "OK");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  watcher.join();
  EXPECT_TRUE(loris_gone.load());
  EXPECT_GE(service_->counters().connections_reaped_idle, 1u);
  // The healthy connection survived the sweep.
  healthy.SendLine(R"({"op":"ping"})");
  EXPECT_EQ(Parse(healthy.ReadLine()).Find("status")->AsString(), "OK");
}

TEST_F(EventServerTest, HandshakeTimeoutReapsProtocollessConnections) {
  EventServerOptions options;
  options.handshake_timeout_ms = 100;
  StartServer(options);
  TestClient mute(server_->port());  // connects, never sends a byte
  EXPECT_TRUE(mute.AtEof());
  EXPECT_EQ(service_->counters().connections_reaped_idle, 1u);

  // A connection that *did* finish the protocol sniff is exempt.
  TestClient talker(server_->port());
  talker.SendLine(R"({"op":"ping"})");
  EXPECT_EQ(Parse(talker.ReadLine()).Find("status")->AsString(), "OK");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  talker.SendLine(R"({"op":"ping"})");
  EXPECT_EQ(Parse(talker.ReadLine()).Find("status")->AsString(), "OK");
}

TEST_F(EventServerTest, WriteStallReapsAPeerThatStopsReading) {
  EventServerOptions options;
  options.write_stall_timeout_ms = 150;
  StartServer(options);
  hooks_.emplace(&block_sends_);

  TestClient client(server_->port());
  client.SendLine(R"({"op":"ping"})");
  // The response is computed but no byte of it ever leaves the write
  // buffer; after 150ms of zero progress the connection is reaped.
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(service_->counters().connections_reaped_write_stall, 1u);
  EXPECT_EQ(service_->counters().connections_reaped_idle, 0u);
  ExpectConnectionsDrain();
}

}  // namespace
}  // namespace remi
