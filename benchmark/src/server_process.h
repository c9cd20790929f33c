// remi_server as a child process, and a blocking client for it.
//
// The benchmark measures the shipped server from outside: it spawns the
// binary, waits for its first OK ping (the set-up time), talks to it over
// loopback TCP in either wire protocol, reads its peak RSS from /proc and
// stops it with SIGTERM, escalating to SIGKILL if the drain hangs. Every
// process started here is reaped before the owning object dies.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/frame_codec.h"
#include "util/json.h"
#include "util/status.h"

namespace remi::perf {

/// Opens a loopback TCP connection with TCP_NODELAY set, so the client
/// never holds back a small request (the server's own sockets are left
/// as the server configures them). -1 on failure.
int ConnectLoopback(int port);

/// One persistent blocking connection speaking NDJSON or binary frames.
class WireClient {
 public:
  WireClient(int port, bool binary);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends one request document and blocks for its response document.
  /// `verb` is used on binary connections; NDJSON documents carry "op".
  Result<std::string> Call(FrameVerb verb, const std::string& doc);

 private:
  int fd_ = -1;
  bool binary_ = false;
  uint64_t next_id_ = 1;
  std::string pending_;  ///< NDJSON bytes read past the last newline
  FrameDecoder decoder_{64u << 20};
};

/// The server's `stats` counters that the ledger check reads.
struct ServerCounters {
  double admitted = 0, completed_ok = 0, deadline_exceeded = 0,
         cancelled = 0, rejected = 0, failed = 0, in_flight = 0,
         reloads_ok = 0, facts = 0, entities = 0;
};

Result<ServerCounters> ParseCounters(const std::string& doc);

/// A running remi_server child.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary <args...> --port 0`, reads the bound port from its
  /// "listening on" line and polls ping until the first OK. On success
  /// `*setup_seconds` is the time from fork to that OK ping.
  Status Start(const std::string& binary, const std::vector<std::string>& args,
               double* setup_seconds);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// VmHWM of the server in MiB.
  double PeakRssMb() const;

  /// `stats` over a fresh NDJSON connection.
  Result<ServerCounters> Counters() const;

  /// SIGTERM, wait for the drain, SIGKILL after `grace_seconds`; reaps
  /// the child. Returns true when the server exited 0 on its own.
  bool Stop(double grace_seconds = 10.0);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

}  // namespace remi::perf
