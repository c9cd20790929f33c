// Helpers that keep tests independent of each other under parallel
// ctest, where every test case runs in its own process and many of those
// processes run at once.

#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

namespace remi::test {

/// A directory private to this test process: created with mkdtemp under
/// ::testing::TempDir() on first use, removed with its contents at exit.
/// TempDir() itself is shared by every test process, so a fixed file
/// name there can be rewritten by one process while another has it
/// mmapped — the reader then dies of SIGBUS.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir();
      if (pattern.empty() || pattern.back() != '/') pattern += '/';
      pattern += "remi_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = pattern;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside ProcessTempDir().
inline std::string TempPath(const std::string& name) {
  return ProcessTempDir() + "/" + name;
}

/// A std::thread that is joined when it leaves scope. A failed ASSERT_*
/// returns from the test body early; a still-joinable std::thread would
/// then call std::terminate and take the rest of the test process with
/// it. `unblock`, when given, runs first on that early-exit path only —
/// e.g. cancelling the request the thread is parked in — so the join
/// cannot hang.
class JoiningThread {
 public:
  template <typename Fn>
    requires(!std::is_same_v<std::remove_cvref_t<Fn>, JoiningThread>)
  explicit JoiningThread(Fn&& fn, std::function<void()> unblock = {})
      : unblock_(std::move(unblock)), thread_(std::forward<Fn>(fn)) {}
  JoiningThread(JoiningThread&&) noexcept = default;
  JoiningThread& operator=(JoiningThread&&) = delete;
  ~JoiningThread() {
    if (!thread_.joinable()) return;
    if (unblock_) unblock_();
    thread_.join();
  }

  void join() { thread_.join(); }

 private:
  std::function<void()> unblock_;
  std::thread thread_;
};

}  // namespace remi::test
