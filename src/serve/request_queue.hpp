#pragma once

/// \file request_queue.hpp
/// The daemon's bounded FIFO between the client accept thread (producer)
/// and the fleet worker loop (consumer). `try_push` never blocks: a full
/// queue refuses immediately so the accept thread can answer "queue full"
/// and keep accepting — backpressure is a clear response, not a stalled
/// connect. The worker waits with a bounded `pop_wait` so it can interleave
/// shutdown-latch and fleet-liveness checks while idle.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "net/socket.hpp"
#include "serve/protocol.hpp"

namespace ds::serve {

/// One accepted-but-not-yet-executed submission: the decoded request plus
/// the client connection its kResponse goes back on.
struct PendingRequest {
  Request request;
  net::Socket client;
  /// `steady_now_us` at accept, so the response's wall time covers queueing.
  std::uint64_t accepted_us = 0;
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Enqueues, or returns false without blocking when the queue is at
  /// capacity or closed (counted in `rejected`).
  bool try_push(PendingRequest&& item) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        ++rejected_;
        return false;
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Dequeues the oldest entry, waiting at most `timeout_ms` for one to
  /// appear. Returns false on timeout.
  bool pop_wait(PendingRequest& out, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [this] { return !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Non-waiting dequeue (the shutdown drain).
  bool try_pop(PendingRequest& out) { return pop_wait(out, 0); }

  /// Refuses all further pushes; queued entries stay poppable (drain).
  void close() {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  [[nodiscard]] std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  [[nodiscard]] std::uint64_t rejected() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<PendingRequest> items_;
  bool closed_ = false;
  std::uint64_t rejected_ = 0;
};

}  // namespace ds::serve
