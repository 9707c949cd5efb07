// Steady-clock stopwatch.
#pragma once

#include <chrono>

namespace autolock::util {

class Timer {
 public:
  Timer() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace autolock::util
