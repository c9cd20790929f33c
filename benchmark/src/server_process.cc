#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "stats.h"

namespace remi::perf {

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

namespace {

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

double CounterField(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
}

}  // namespace

WireClient::WireClient(int port, bool binary)
    : fd_(ConnectLoopback(port)), binary_(binary) {
  // A server that stops answering fails the call instead of hanging the
  // benchmark past its time limit.
  const timeval timeout{30, 0};
  if (fd_ >= 0) {
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
}

WireClient::~WireClient() {
  if (fd_ >= 0) close(fd_);
}

Result<std::string> WireClient::Call(FrameVerb verb, const std::string& doc) {
  if (fd_ < 0) return Status::IoError("not connected");
  std::string wire;
  const uint64_t id = next_id_++;
  if (binary_) {
    AppendFrame(static_cast<uint8_t>(verb), id, doc, &wire);
  } else {
    wire = doc + "\n";
  }
  if (!SendAll(fd_, wire)) return Status::IoError("send failed");
  char chunk[16384];
  for (;;) {
    if (binary_) {
      FrameView frame;
      const auto next = decoder_.Next(&frame);
      if (next == FrameDecoder::Result::kFrame) {
        if (frame.request_id != id) {
          return Status::Corruption("response for an unexpected request id");
        }
        return std::string(frame.payload);
      }
      if (next == FrameDecoder::Result::kError) return decoder_.status();
    } else if (const size_t nl = pending_.find('\n');
               nl != std::string::npos) {
      std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return line;
    }
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("connection closed");
    if (binary_) {
      decoder_.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    } else {
      pending_.append(chunk, static_cast<size_t>(n));
    }
  }
}

Result<ServerCounters> ParseCounters(const std::string& doc) {
  auto parsed = ParseJson(doc);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* status = parsed->Find("status");
  if (status == nullptr || !status->is_string() ||
      status->AsString() != "OK") {
    return Status::Corruption("stats failed: " + doc);
  }
  ServerCounters c;
  c.admitted = CounterField(*parsed, "admitted");
  c.completed_ok = CounterField(*parsed, "completed_ok");
  c.deadline_exceeded = CounterField(*parsed, "deadline_exceeded");
  c.cancelled = CounterField(*parsed, "cancelled");
  c.rejected = CounterField(*parsed, "rejected");
  c.failed = CounterField(*parsed, "failed");
  c.in_flight = CounterField(*parsed, "in_flight");
  c.reloads_ok = CounterField(*parsed, "reloads_ok");
  c.facts = CounterField(*parsed, "facts");
  c.entities = CounterField(*parsed, "entities");
  return c;
}

Status ServerProcess::Start(const std::string& binary,
                            const std::vector<std::string>& args,
                            double* setup_seconds) {
  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) return Status::IoError("pipe failed");
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.push_back("--port");
  argv_storage.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const double t0 = NowSeconds();
  pid_ = fork();
  if (pid_ < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return Status::IoError("fork failed");
  }
  if (pid_ == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  stdout_fd_ = out_pipe[0];

  // The port comes from the "... listening on 127.0.0.1:<port>" line.
  std::string out;
  const double give_up = t0 + 60.0;
  while (port_ == 0) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (NowSeconds() > give_up) return Status::IoError("server never listened");
    if (poll(&pfd, 1, 100) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) return Status::IoError("server exited before listening");
    out.append(chunk, static_cast<size_t>(n));
    const size_t at = out.find("listening on ");
    const size_t nl = at == std::string::npos ? at : out.find('\n', at);
    if (nl != std::string::npos) {
      port_ = std::atoi(out.c_str() + out.rfind(':', nl) + 1);
    }
  }
  for (;;) {
    WireClient client(port_, /*binary=*/false);
    if (client.connected()) {
      auto pong = client.Call(FrameVerb::kPing, R"({"op":"ping"})");
      if (pong.ok() && pong->rfind(R"({"status":"OK")", 0) == 0) break;
    }
    if (NowSeconds() > give_up) return Status::IoError("server never pinged");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *setup_seconds = NowSeconds() - t0;
  return Status::OK();
}

double ServerProcess::PeakRssMb() const {
  return perf::PeakRssMb(std::to_string(pid_));
}

Result<ServerCounters> ServerProcess::Counters() const {
  WireClient client(port_, /*binary=*/false);
  auto doc = client.Call(FrameVerb::kCounters, R"({"op":"stats"})");
  if (!doc.ok()) return doc.status();
  return ParseCounters(*doc);
}

bool ServerProcess::Stop(double grace_seconds) {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  int wstatus = 0;
  bool clean = false;
  const double give_up = NowSeconds() + grace_seconds;
  for (;;) {
    const pid_t r = waitpid(pid_, &wstatus, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
      break;
    }
    if (r < 0 && errno != EINTR) break;
    if (NowSeconds() > give_up) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  port_ = 0;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  return clean;
}

}  // namespace remi::perf
