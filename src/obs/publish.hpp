#pragma once

/// \file publish.hpp
/// `obs::SnapshotPublisher` — the lock-free bridge between a hot round loop
/// and the embedded HTTP server.
///
/// The round loop (the single *writer*) pushes a coalesced copy of every
/// metric cell at round boundaries via `publish()`; the HTTP thread (any
/// number of *readers*) materializes consistent snapshots via `read()`.
/// The round path takes no locks: values live in a flat array of relaxed
/// `std::atomic<uint64_t>` cells guarded by a seqlock sequence counter
/// (odd = write in progress; a reader that observes a seq change retries),
/// so `BM_MetricsOverhead` stays flat with a publisher attached.
///
/// Structure (metric names/kinds/slot counts) changes only at registration
/// boundaries — the registry is sealed against new names while published
/// (see metrics.hpp) — so a structure rebuild is rare: the buffer is
/// re-laid-out, pre-filled, and swapped in with one atomic pointer store.
/// Retired buffers are never freed (a reader may still be copying from
/// one); their count is bounded by the number of registration epochs, not
/// by time.
///
/// Everything off the round path — static run info, health, the run-history
/// ring — is plain mutex-guarded state written at run start/end.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ds::obs {

/// Lifecycle of the publishing process, served by `/healthz`: 200 while
/// idle/running/completed, 503 once aborted or draining (a draining serve
/// daemon must drop out of its load balancer before it exits).
enum class Health : std::uint8_t {
  kIdle = 0,       ///< publisher constructed, no run started
  kRunning = 1,    ///< a round loop is live
  kCompleted = 2,  ///< last run finished cleanly
  kAborted = 3,    ///< last run died (collective abort, thrown error)
  kDraining = 4,   ///< serve daemon finishing in-flight work before exit
};

[[nodiscard]] const char* health_name(Health h);

/// One finished run, kept in the bounded history ring.
struct RunRecord {
  std::uint64_t id = 0;      ///< monotone per-publisher run number (from 1)
  std::string label;         ///< "mis seed=7" — whatever the tool passes
  std::uint64_t rounds = 0;  ///< rounds completed when the run ended
  std::uint64_t wall_us = 0; ///< run_started → run_finished wall time
  bool ok = false;
  /// Serve provenance: digest of the request's parameter overrides and of
  /// the run's output table. Zero outside the serve path.
  std::uint64_t params_digest = 0;
  std::uint64_t output_digest = 0;
};

/// Reader-side view of one published metric: per-slot cells (per-peer tcp
/// counters keep their slots) plus the usual aggregation.
struct PublishedMetric {
  std::string name;
  Kind kind = Kind::kCounter;
  std::vector<Cell> cells;

  /// All slots merged, with the registry's per-kind semantics.
  [[nodiscard]] MetricSnapshot aggregate() const;
};

/// One consistent published snapshot.
struct PublishedSnapshot {
  std::uint64_t version = 0;  ///< publish count at capture
  std::uint64_t rounds = 0;   ///< completed rounds at capture
  std::vector<PublishedMetric> metrics;
};

class SnapshotPublisher {
 public:
  SnapshotPublisher() = default;
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  // ---- writer side (the round-loop / tool thread; one writer at a time) --

  /// Coalesces every cell of `m` into the published buffer. Called at round
  /// boundaries; seals `m` against late new-name registration.
  void publish(const Metrics& m, std::uint64_t rounds);

  /// Static context served by `/status` and `/api/v1/snapshot` — the same
  /// key/value shape `write_metrics_json` takes.
  void set_info(std::vector<std::pair<std::string, std::string>> info);

  void set_health(Health h) {
    health_.store(static_cast<std::uint8_t>(h), std::memory_order_release);
  }

  /// Marks the run live and remembers its label (and, on the serve path,
  /// the request's params digest) for the history record.
  void run_started(const std::string& label, std::uint64_t params_digest = 0);

  /// Appends a history record (bounded ring) and transitions health to
  /// kCompleted/kAborted. `rounds` of the record comes from the last
  /// publish; `output_digest` is the serve path's result digest (0 = none).
  void run_finished(bool ok, std::uint64_t output_digest = 0);

  /// Installs the live profile source for `/api/v1/profile`: a callable
  /// returning the current folded stacks (the tool wires it to the sampling
  /// profiler's non-clearing collect). The callable must be thread-safe —
  /// it runs on the HTTP thread while the round loop samples.
  void set_profile_source(std::function<std::string()> source);

  // ---- reader side (the HTTP thread) ----

  [[nodiscard]] Health health() const {
    return static_cast<Health>(health_.load(std::memory_order_acquire));
  }

  /// Copies the latest published snapshot into `out`. Returns false when
  /// nothing was published yet. Retries torn reads internally.
  [[nodiscard]] bool read(PublishedSnapshot& out) const;

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> info() const;
  [[nodiscard]] std::vector<RunRecord> history() const;

  /// True when a profile source is installed (profiling enabled).
  [[nodiscard]] bool has_profile_source() const;

  /// Renders the live folded-stack profile ("" without a source). The
  /// source callable is copied under the mutex and invoked outside it.
  [[nodiscard]] std::string profile_text() const;
  [[nodiscard]] std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// History ring capacity (oldest runs evicted first).
  static constexpr std::size_t kHistoryCapacity = 32;

 private:
  /// Immutable layout of one buffer generation: names/kinds/slot counts and
  /// each metric's offset into the value array.
  struct Layout {
    struct Row {
      std::string name;
      Kind kind = Kind::kCounter;
      std::size_t slots = 0;
      std::size_t offset = 0;  ///< first word of this metric's cells
    };
    std::vector<Row> rows;
    std::size_t cell_words = 0;  ///< total cells * 4
  };

  /// One buffer generation: header words then 4 words per cell, all
  /// relaxed atomics under the seqlock.
  struct Buffer {
    const Layout* layout = nullptr;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  static constexpr std::size_t kHeaderWords = 2;  ///< [rounds, version]

  /// Returns the current buffer, rebuilding (and atomically swapping in) a
  /// new generation when the registry grew. Writer thread only.
  Buffer* ensure_buffer(const Metrics& m);

  std::atomic<std::uint64_t> seq_{0};          ///< seqlock; odd = writing
  std::atomic<Buffer*> current_{nullptr};
  std::atomic<std::uint8_t> health_{0};
  std::atomic<std::uint64_t> publishes_{0};

  /// All generations ever built — retired ones stay alive for late readers.
  std::vector<std::unique_ptr<Layout>> layouts_;
  std::vector<std::unique_ptr<Buffer>> buffers_;

  mutable std::mutex meta_mu_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::function<std::string()> profile_source_;
  std::deque<RunRecord> history_;
  std::string run_label_;
  std::uint64_t run_start_us_ = 0;
  std::uint64_t run_params_digest_ = 0;
  std::uint64_t next_run_id_ = 1;
};

}  // namespace ds::obs
