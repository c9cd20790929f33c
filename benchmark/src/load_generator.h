// The open-loop load generator: one thread, ppoll(2) over a fixed set of
// persistent loopback connections (each NDJSON or binary).
//
// Requests go out on a precomputed schedule and never wait for earlier
// responses. Each request is timed from its *scheduled* send time, so a
// stall in the server also charges the requests queued behind it, and the
// generator records how late it actually sent each one: a phase whose
// sends ran late measures the generator, not the server.

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/frame_codec.h"

namespace remi::perf {

struct ScheduledRequest {
  double offset = 0.0;  ///< seconds after the phase starts
  int conn = 0;         ///< connection index
  FrameVerb verb = FrameVerb::kPing;
  std::string doc;      ///< JSON request document, "op" included
  int tenant = 0;       ///< which KB it addresses (0 = the default one)
  bool reload = false;  ///< a reload of `tenant`
  bool admitted = false;  ///< passes the Service's admission gate
  int key = -1;         ///< caller's index (e.g. the expected response)
};

enum class Outcome : uint8_t { kPending, kOk, kRejected, kDeadline, kError };

struct RequestRecord {
  double scheduled = 0.0;  ///< absolute, seconds
  double sent = 0.0;
  double done = 0.0;
  Outcome outcome = Outcome::kPending;
  std::string response;  ///< kept only when requested

  double latency_ms() const { return (done - scheduled) * 1e3; }
  double late_ms() const { return (sent - scheduled) * 1e3; }
};

struct PhaseRun {
  std::vector<RequestRecord> records;  ///< aligned with the schedule
  double start = 0.0;
  /// Responses still owed when the last request of the schedule was sent.
  size_t outstanding_at_last_send = 0;
  bool drained = true;  ///< every request was answered
};

/// Maps a response document's leading status to an outcome.
Outcome ClassifyResponse(std::string_view doc);

class LoadGenerator {
 public:
  /// Connects one socket per entry of `binary` (true = binary frames).
  LoadGenerator(int port, const std::vector<bool>& binary);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool ok() const { return ok_; }

  /// Runs `schedule` (sorted by offset) and waits up to `drain_seconds`
  /// after the last send for the remaining responses.
  PhaseRun Run(const std::vector<ScheduledRequest>& schedule,
               double drain_seconds, bool keep_responses);

 private:
  struct Conn {
    int fd = -1;
    bool binary = false;
    bool failed = false;
    std::string out;
    size_t out_off = 0;
    std::string lines;
    FrameDecoder decoder{64u << 20};
    std::deque<size_t> fifo;                  ///< NDJSON: records in order
    std::unordered_map<uint64_t, size_t> ids;  ///< binary: id -> record
  };

  void Flush(Conn& conn);

  std::vector<Conn> conns_;
  bool ok_ = true;
  uint64_t next_id_ = 1;
};

}  // namespace remi::perf
