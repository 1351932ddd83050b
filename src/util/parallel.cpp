#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nfstrace {

void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex errorMu;
  std::exception_ptr error;  // guarded by errorMu until the joins
  auto drain = [&](std::size_t t) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i, t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> started;
  started.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      started.emplace_back(drain, t);
    } catch (...) {
      // The thread did not start (std::system_error, or no memory for
      // its state): the ones already running and the caller take its
      // tasks, so the loop never fails for want of a thread.
      break;
    }
  }
  drain(0);
  for (std::thread& th : started) th.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace nfstrace
