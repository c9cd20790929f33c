#include "load_generator.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>

#include "server_process.h"
#include "service/socket_util.h"
#include "stats.h"

namespace remi::perf {

Outcome ClassifyResponse(std::string_view doc) {
  constexpr std::string_view kPrefix = R"({"status":")";
  if (doc.substr(0, kPrefix.size()) != kPrefix) return Outcome::kError;
  const std::string_view rest = doc.substr(kPrefix.size());
  if (rest.rfind("OK\"", 0) == 0) return Outcome::kOk;
  if (rest.rfind("ResourceExhausted\"", 0) == 0) return Outcome::kRejected;
  if (rest.rfind("DeadlineExceeded\"", 0) == 0) return Outcome::kDeadline;
  return Outcome::kError;
}

LoadGenerator::LoadGenerator(int port, const std::vector<bool>& binary) {
  conns_.resize(binary.size());
  for (size_t i = 0; i < binary.size(); ++i) {
    conns_[i].binary = binary[i];
    conns_[i].fd = ConnectLoopback(port);
    if (conns_[i].fd < 0 || !SetNonBlocking(conns_[i].fd)) ok_ = false;
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
}

void LoadGenerator::Flush(Conn& conn) {
  while (!conn.failed && conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      conn.failed = true;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

PhaseRun LoadGenerator::Run(const std::vector<ScheduledRequest>& schedule,
                            double drain_seconds, bool keep_responses) {
  PhaseRun run;
  run.records.resize(schedule.size());
  size_t outstanding = 0;
  size_t next = 0;
  double last_send_deadline = 0.0;
  std::vector<pollfd> pfds(conns_.size());
  char chunk[1 << 16];

  const auto complete = [&](size_t index, std::string_view doc,
                            double arrival) {
    RequestRecord& record = run.records[index];
    record.done = arrival;
    record.outcome = ClassifyResponse(doc);
    if (keep_responses) record.response.assign(doc);
    --outstanding;
  };

  const auto fail_conn = [&](Conn& conn, double now) {
    conn.failed = true;
    for (const size_t index : conn.fifo) {
      run.records[index].outcome = Outcome::kError;
      run.records[index].done = now;
      --outstanding;
    }
    for (const auto& [id, index] : conn.ids) {
      run.records[index].outcome = Outcome::kError;
      run.records[index].done = now;
      --outstanding;
    }
    conn.fifo.clear();
    conn.ids.clear();
  };

  run.start = NowSeconds() + 0.001;
  for (;;) {
    double now = NowSeconds();
    while (next < schedule.size() &&
           run.start + schedule[next].offset <= now) {
      const ScheduledRequest& request = schedule[next];
      RequestRecord& record = run.records[next];
      record.scheduled = run.start + request.offset;
      Conn& conn = conns_[static_cast<size_t>(request.conn)];
      if (conn.failed) {
        record.outcome = Outcome::kError;
        record.sent = record.done = now;
        ++next;
        continue;
      }
      if (conn.binary) {
        const uint64_t id = next_id_++;
        AppendFrame(static_cast<uint8_t>(request.verb), id, request.doc,
                    &conn.out);
        conn.ids.emplace(id, next);
      } else {
        conn.out += request.doc;
        conn.out += '\n';
        conn.fifo.push_back(next);
      }
      ++outstanding;
      Flush(conn);
      record.sent = NowSeconds();
      ++next;
      if (next == schedule.size()) {
        run.outstanding_at_last_send = outstanding;
        last_send_deadline = NowSeconds() + drain_seconds;
      }
    }
    if (schedule.empty() && last_send_deadline == 0.0) {
      last_send_deadline = NowSeconds() + drain_seconds;
    }
    if (next == schedule.size() &&
        (outstanding == 0 || NowSeconds() > last_send_deadline)) {
      break;
    }

    double wait = next < schedule.size()
                      ? run.start + schedule[next].offset - NowSeconds()
                      : std::min(0.01, last_send_deadline - NowSeconds());
    wait = std::max(0.0, wait);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    for (size_t i = 0; i < conns_.size(); ++i) {
      const Conn& conn = conns_[i];
      pfds[i].fd = conn.failed ? -1 : conn.fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conn.out_off < conn.out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    if (ppoll(pfds.data(), pfds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      ok_ = false;
      break;
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (conn.failed) continue;
      if (pfds[i].revents & POLLOUT) Flush(conn);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        now = NowSeconds();
        if (n <= 0) {
          fail_conn(conn, now);
          break;
        }
        if (conn.binary) {
          conn.decoder.Feed(std::string_view(chunk, static_cast<size_t>(n)));
          FrameView frame;
          for (;;) {
            const auto result = conn.decoder.Next(&frame);
            if (result == FrameDecoder::Result::kNeedMore) break;
            if (result == FrameDecoder::Result::kError) {
              fail_conn(conn, now);
              break;
            }
            const auto it = conn.ids.find(frame.request_id);
            if (it == conn.ids.end()) continue;
            const size_t index = it->second;
            conn.ids.erase(it);
            complete(index, frame.payload, now);
          }
        } else {
          conn.lines.append(chunk, static_cast<size_t>(n));
          size_t pos = 0;
          for (size_t nl; (nl = conn.lines.find('\n', pos)) !=
                          std::string::npos;
               pos = nl + 1) {
            if (conn.fifo.empty()) continue;
            const size_t index = conn.fifo.front();
            conn.fifo.pop_front();
            complete(index,
                     std::string_view(conn.lines).substr(pos, nl - pos), now);
          }
          conn.lines.erase(0, pos);
        }
        if (conn.failed) break;
      }
    }
  }

  // Whatever is still owed after the drain window never came back.
  const double now = NowSeconds();
  for (RequestRecord& record : run.records) {
    if (record.outcome == Outcome::kPending) {
      record.outcome = Outcome::kError;
      record.done = now;
      run.drained = false;
    }
  }
  if (!run.drained) {
    // The late responses would be matched to the next phase's requests:
    // these connections are no longer usable.
    for (Conn& conn : conns_) conn.failed = true;
    ok_ = false;
  }
  return run;
}

}  // namespace remi::perf
