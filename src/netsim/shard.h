// Sharded conservative-PDES execution engine.
//
// Splits a simulated cluster across worker threads, one EventScheduler
// per shard, synchronized with the classic conservative time-window
// protocol: all cross-shard traffic has a minimum latency W (the
// *lookahead* — in CoIC topologies, the smallest propagation delay of
// any link whose endpoints live on different shards), so every shard can
// safely run one window of width W without hearing from its peers.
// Messages sent during window k are handed over at *send* time stamped
// with their precomputed delivery time (Link::Transmit), which is
// provably at or after the end of window k; they are drained and
// scheduled at the barrier, before window k+1 begins. With a fixed
// inbox drain order this reproduces the single-thread engine's outcomes
// bit-for-bit (events at equal timestamps may interleave differently
// across shards *within* a timestamp, but per-shard state never spans
// shards in CoIC's venue-partitioned pipelines).
//
// Each iteration runs two barrier phases:
//
//   [B] drain inboxes -> publish counters -> barrier (decide)
//   [run] RunUntil(window_end)
//   [A] barrier (all senders finished the window)
//
// Barrier B's completion step — running exclusively while every worker
// is blocked — aggregates the published counters to decide termination:
// once completed ops reach the expected count (or a stall is detected)
// it raises the quiesce flag; workers then cancel their free-running
// timers, the remaining events drain, and `done` latches when no shard
// has pending events. The completion step also advances the window,
// skipping straight to the globally earliest pending event when the gap
// exceeds a window (idle stretches cost one barrier round, not
// thousands).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/frame.h"
#include "common/time.h"
#include "netsim/scheduler.h"

namespace coic::netsim {

/// One cross-shard frame in flight: `from` sent to `to` (node ids in the
/// receiving shard's Network); the sending shard's link model already
/// fixed the delivery time.
struct ShardMessage {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  SimTime deliver_at;
  Frame payload;
  /// A gather send's second segment, handed over by reference; empty for
  /// a plain frame.
  Frame tail;
};

/// Per-shard callbacks the runner drives. All of them run on the shard's
/// worker thread only.
struct ShardHooks {
  EventScheduler* sched = nullptr;
  /// Schedules one drained cross-shard arrival on this shard's clock.
  std::function<void(ShardMessage)> deliver;
  /// Operations completed by this shard so far.
  std::function<std::uint64_t()> completed;
  /// Number of pending events that are pure self-rearming timers (armed
  /// gossip timers): when every shard's entire backlog is such timers
  /// and nothing is in flight, no operation can ever complete — the
  /// runner quiesces and reports a stall instead of spinning forever.
  std::function<std::uint64_t()> idle_floor;
  /// Invoked once when the runner decides the run is over (success or
  /// stall): cancel free-running timers so the shard can drain.
  std::function<void()> quiesce;
};

struct ShardRunnerConfig {
  /// Synchronization window; must not exceed the cluster's cross-shard
  /// lookahead or the runner CHECK-fails on a late delivery.
  Duration window = Duration::Millis(1);
  /// Target operation count; 0 quiesces at the first barrier (drain-only
  /// run).
  std::uint64_t expected_completions = 0;
  /// Barrier rounds without a new completion before the runner declares
  /// a stall (backstop — the precise idle-floor trigger normally fires
  /// long before this).
  std::uint64_t stall_backstop_windows = 1'000'000;
};

class ShardRunner {
 public:
  ShardRunner(ShardRunnerConfig config, std::vector<ShardHooks> shards);

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;
  ~ShardRunner();

  /// Producer-side handoff: called from shard `from_shard`'s worker
  /// thread (inside its remote-dispatch hook) to enqueue a message for
  /// `to_shard`.
  void Send(std::uint32_t from_shard, std::uint32_t to_shard,
            ShardMessage msg);

  struct Result {
    std::uint64_t windows = 0;         ///< Barrier rounds executed.
    std::uint64_t cross_messages = 0;  ///< Frames that crossed shards.
    bool stalled = false;              ///< Quiesced without completing.
  };

  /// Runs the cluster to completion. Spawns one thread per shard beyond
  /// the first (shard 0 runs on the calling thread) and joins them all
  /// before returning.
  Result Run();

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  struct Impl;

  void WorkerLoop(std::uint32_t shard);
  /// Barrier-B completion step; runs while all workers are blocked.
  void OnDecideBarrier() noexcept;

  ShardRunnerConfig config_;
  std::vector<ShardHooks> shards_;
  Impl* impl_;  ///< Barriers/queues/slots (kept out of the header).
};

}  // namespace coic::netsim
