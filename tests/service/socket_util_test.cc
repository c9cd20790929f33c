#include "service/socket_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include <gtest/gtest.h>

namespace remi {
namespace {

TEST(ConsumedBufferTest, AppendConsumeRoundTrip) {
  ConsumedBuffer buffer;
  EXPECT_TRUE(buffer.Empty());
  EXPECT_EQ(buffer.PendingSize(), 0u);

  buffer.Append("hello ");
  buffer.Append("world");
  EXPECT_EQ(buffer.Pending(), "hello world");

  buffer.Consume(6);
  EXPECT_EQ(buffer.Pending(), "world");
  EXPECT_EQ(buffer.PendingSize(), 5u);

  buffer.Consume(5);
  EXPECT_TRUE(buffer.Empty());
  // Full consumption resets the storage entirely.
  EXPECT_EQ(buffer.StorageBytes(), 0u);
}

TEST(ConsumedBufferTest, InterleavedAppendAndConsume) {
  ConsumedBuffer buffer;
  std::string expected;
  for (int i = 0; i < 100; ++i) {
    const std::string piece = "chunk" + std::to_string(i) + ";";
    buffer.Append(piece);
    expected += piece;
    // Consume roughly half of what is pending each round.
    const size_t eat = buffer.PendingSize() / 2;
    EXPECT_EQ(buffer.Pending(), expected);
    buffer.Consume(eat);
    expected.erase(0, eat);
    EXPECT_EQ(buffer.Pending(), expected);
  }
}

TEST(ConsumedBufferTest, CompactionBoundsStorage) {
  // Feed and consume far more than the compaction threshold; the dead
  // prefix must not grow without bound (the O(n^2) erase-per-recv bug's
  // memory-shaped sibling).
  ConsumedBuffer buffer;
  const std::string piece(4096, 'x');
  for (int i = 0; i < 1000; ++i) {
    buffer.Append(piece);
    buffer.Consume(piece.size() / 2);  // always leave a pending tail
  }
  // Pending tail: 1000 * 2048 bytes. Storage may at most double it.
  EXPECT_GE(buffer.StorageBytes(), buffer.PendingSize());
  EXPECT_LE(buffer.StorageBytes(),
            2 * buffer.PendingSize() + 128 * 1024);
}

TEST(ConsumedBufferTest, ClearResets) {
  ConsumedBuffer buffer;
  buffer.Append("data");
  buffer.Consume(2);
  buffer.Clear();
  EXPECT_TRUE(buffer.Empty());
  EXPECT_EQ(buffer.StorageBytes(), 0u);
}

TEST(ClassifyAcceptErrorTest, TransientErrnosRetry) {
  EXPECT_EQ(ClassifyAcceptError(EINTR), AcceptErrorAction::kRetry);
  EXPECT_EQ(ClassifyAcceptError(ECONNABORTED), AcceptErrorAction::kRetry);
  EXPECT_EQ(ClassifyAcceptError(EAGAIN), AcceptErrorAction::kRetry);
}

TEST(ClassifyAcceptErrorTest, PendingNetworkErrorsAreCountedRetries) {
  // The original bug: EPROTO (a network error pending on the accepted
  // socket, reported through accept) silently ended the accept loop,
  // leaving a zombie server. It must classify as retry-with-counting.
  EXPECT_EQ(ClassifyAcceptError(EPROTO), AcceptErrorAction::kRetryCounted);
  EXPECT_EQ(ClassifyAcceptError(EPERM), AcceptErrorAction::kRetryCounted);
  EXPECT_EQ(ClassifyAcceptError(ENETDOWN), AcceptErrorAction::kRetryCounted);
  EXPECT_EQ(ClassifyAcceptError(EHOSTUNREACH),
            AcceptErrorAction::kRetryCounted);
}

TEST(ClassifyAcceptErrorTest, ResourceExhaustionBacksOff) {
  EXPECT_EQ(ClassifyAcceptError(EMFILE),
            AcceptErrorAction::kRetryAfterBackoff);
  EXPECT_EQ(ClassifyAcceptError(ENFILE),
            AcceptErrorAction::kRetryAfterBackoff);
  EXPECT_EQ(ClassifyAcceptError(ENOBUFS),
            AcceptErrorAction::kRetryAfterBackoff);
  EXPECT_EQ(ClassifyAcceptError(ENOMEM),
            AcceptErrorAction::kRetryAfterBackoff);
}

TEST(ClassifyAcceptErrorTest, BrokenListenerIsFatal) {
  EXPECT_EQ(ClassifyAcceptError(EBADF), AcceptErrorAction::kFatal);
  EXPECT_EQ(ClassifyAcceptError(EINVAL), AcceptErrorAction::kFatal);
  EXPECT_EQ(ClassifyAcceptError(ENOTSOCK), AcceptErrorAction::kFatal);
}

TEST(ClassifyAcceptErrorTest, UnknownErrnosNeverKillTheLoop) {
  // Anything unlisted must retry (with logging/backoff), never exit:
  // an unknown errno classified as fatal is exactly the zombie bug.
  EXPECT_EQ(ClassifyAcceptError(EIO), AcceptErrorAction::kRetryAfterBackoff);
  EXPECT_EQ(ClassifyAcceptError(12345),
            AcceptErrorAction::kRetryAfterBackoff);
}

/// TCP_NODELAY as getsockopt reports it (-1 when the call fails).
int NoDelayOf(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) return -1;
  return value;
}

TEST(SetNoDelayTest, SetsTheOption) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(NoDelayOf(fd), 0);
  EXPECT_TRUE(SetNoDelay(fd));
  EXPECT_EQ(NoDelayOf(fd), 1);
  close(fd);
}

TEST(SetNoDelayTest, FailsOnANonSocket) {
  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  EXPECT_FALSE(SetNoDelay(pipe_fds[0]));
  close(pipe_fds[0]);
  close(pipe_fds[1]);
}

TEST(ConnectToTest, ConnectedSocketRunsWithNoDelay) {
  // A loopback listener on an ephemeral port; the kernel completes the
  // handshake from the backlog, so nothing needs to accept.
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  auto fd = ConnectTo("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_EQ(NoDelayOf(*fd), 1);
  close(*fd);
  close(listener);
}

TEST(ConnectToTest, BadHostIsInvalidArgument) {
  auto fd = ConnectTo("not-an-address", 7411);
  ASSERT_FALSE(fd.ok());
  EXPECT_TRUE(fd.status().IsInvalidArgument()) << fd.status().ToString();
}

}  // namespace
}  // namespace remi
