// Point-to-point link model.
//
// A Link is a unidirectional pipe with the classic store-and-forward
// delay decomposition the paper's testbed exhibits physically:
//
//   delivery = serialization (bytes*8/bandwidth, FIFO behind earlier
//              frames) + propagation + (optional) jitter
//
// plus a byte-capacity drop-tail queue and Bernoulli loss, which is what
// `tc netem`/`tbf` impose in the paper's experiment ("We use tc to tune
// the network condition to simulate real wireless/mobile network").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "common/frame.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "netsim/scheduler.h"

namespace coic::netsim {

/// Why a frame failed to deliver.
enum class DropReason : std::uint8_t {
  kQueueOverflow = 0,  ///< Drop-tail: queue byte capacity exceeded.
  kRandomLoss = 1,     ///< Bernoulli or burst (Gilbert–Elliott) wire loss.
  kForced = 2,         ///< ForceDropNext test seam.
  kLinkDown = 3,       ///< Link was down (crash/partition outage).
};

/// Two-state Gilbert–Elliott bursty-loss model. The chain steps once per
/// frame accepted for transmission: first the state-transition draw,
/// then a per-state Bernoulli loss draw. Complements (does not replace)
/// LinkConfig::loss_rate — both processes can be active; a frame is lost
/// if either kills it. All draws come from the link's seeded Rng, so a
/// given seed + send sequence replays bit-identically.
struct GilbertElliottConfig {
  bool enabled = false;
  double good_to_bad = 0.0;     ///< P(good -> bad) per frame.
  double bad_to_good = 0.0;     ///< P(bad -> good) per frame.
  double good_loss_rate = 0.0;  ///< Loss probability while in good state.
  double bad_loss_rate = 0.0;   ///< Loss probability while in bad state.
};

struct LinkConfig {
  Bandwidth bandwidth = Bandwidth::Mbps(100);
  Duration propagation = Duration::Millis(2);
  /// Byte capacity of the drop-tail queue of frames that have not yet
  /// begun serialization. 0 means unlimited (the Figure 2a/2b latency
  /// experiments use unlimited queues, as the testbed's buffers never
  /// overflowed at one-request-at-a-time load).
  Bytes queue_capacity = 0;
  /// Bernoulli per-frame loss probability in [0, 1).
  double loss_rate = 0;
  /// Uniform extra delay in [0, jitter] added to propagation.
  Duration jitter = Duration::Zero();
  /// Seed for loss/jitter draws (loss and jitter are deterministic given
  /// the seed and send sequence).
  std::uint64_t seed = 0x51CA9E;
  /// Optional bursty-loss overlay on top of the Bernoulli draw.
  GilbertElliottConfig burst_loss;
};

/// Aggregate link counters (exact, not sampled).
struct LinkStats {
  std::uint64_t frames_sent = 0;      ///< Accepted for transmission.
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped_queue = 0;
  std::uint64_t frames_dropped_loss = 0;
  /// Subset of frames_dropped_loss killed because the link was down —
  /// outage loss stays attributable next to wire loss in snapshots.
  std::uint64_t frames_dropped_down = 0;
  Bytes bytes_delivered = 0;
  Duration busy_time = Duration::Zero();  ///< Total serialization time.
};

class Link {
 public:
  /// Payloads travel as refcounted Frames: a broadcast sender hands the
  /// same buffer to every link, and delivery moves the reference to the
  /// receiving handler without ever copying the bytes.
  using DeliverFn = std::function<void(Frame payload)>;
  /// Delivery of a scatter-gather frame: the two segments as sent.
  using GatherDeliverFn = std::function<void(Frame head, Frame tail)>;
  using DropFn = std::function<void(DropReason, Frame payload)>;

  Link(EventScheduler& sched, std::string name, LinkConfig config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Queues `payload` for transmission. `on_delivered` runs at delivery
  /// time with the payload moved in; `on_dropped` (optional) runs
  /// immediately on queue overflow or at would-be delivery time on loss.
  void Send(Frame payload, DeliverFn on_delivered, DropFn on_dropped = nullptr);

  /// The fate of one frame, decided at send time.
  struct Verdict {
    bool delivered = false;
    DropReason reason = DropReason::kRandomLoss;  ///< Set when !delivered.
    /// Arrival time; for a frame lost on the wire, the time it would
    /// have arrived. A queue-overflow drop never left, so it reads now.
    SimTime deliver_at;
  };

  /// Conservative-PDES form of Send: runs the exact admission path of
  /// Send (queue capacity, serialization FIFO, loss and jitter draws, in
  /// the same rng order) for a frame of `size` bytes and updates every
  /// counter, then returns the verdict and leaves carrying the bytes to
  /// the caller. The sharded Network hands a surviving frame to the
  /// owning shard at send time, stamped with its delivery time, so the
  /// receiver learns of it one full lookahead window before it is due;
  /// the datagram layer ships chunk slices of a shared frame this way
  /// without materializing one buffer per chunk. Loss counters fire at
  /// send time instead of at would-be delivery time, which shifts
  /// bookkeeping, never an outcome.
  Verdict Transmit(Bytes size);

  /// Scatter-gather form of Send: transmits `head` and `tail` as one
  /// frame of head.size() + tail.size() bytes (one serialization slot,
  /// one loss draw, one delivery) — the simulator analogue of writev(2).
  /// Delivery hands the receiver both segments as they were sent, so a
  /// tiny per-request header and a large shared payload reach the
  /// handler without either side ever joining them; an empty `tail` is
  /// a plain Send. Only a drop fuses the pair, to give `on_dropped` its
  /// message back whole; that fuse is counted in frame_stats()
  /// (Frame::Fuse).
  void SendGather(Frame head, Frame tail, GatherDeliverFn on_delivered,
                  DropFn on_dropped = nullptr);

  /// Reconfigures bandwidth/propagation on the fly (the `tc` analogue —
  /// the bench sweeps call this between conditions). In-flight frames
  /// keep the schedule they were assigned at send time.
  void SetBandwidth(Bandwidth bw) noexcept { config_.bandwidth = bw; }
  void SetPropagation(Duration d) noexcept { config_.propagation = d; }
  void SetLossRate(double p) noexcept { config_.loss_rate = p; }

  /// Switches the Gilbert–Elliott bursty-loss overlay on/off mid-run
  /// (the chaos engine's loss-burst lever). The chain state resets to
  /// good on every reconfiguration so a burst window always starts from
  /// the same state regardless of earlier bursts.
  void SetBurstLoss(const GilbertElliottConfig& ge) noexcept {
    config_.burst_loss = ge;
    burst_bad_ = false;
  }

  /// Deterministic loss seam for tests: the next `n` frames accepted for
  /// transmission are dropped (DropReason::kForced) at their would-be
  /// delivery time, independent of loss_rate.
  void ForceDropNext(std::uint64_t n = 1) noexcept { force_drop_next_ += n; }

  /// Like ForceDropNext, but lets `skip` frames through first — targets
  /// a specific frame of an already-queued burst (e.g. the middle chunk
  /// of a datagram train, which a prefix counter cannot reach).
  void ForceDropAfter(std::uint64_t skip, std::uint64_t n = 1) noexcept {
    force_drop_skip_ += skip;
    force_drop_next_ += n;
  }

  /// Takes the link down (every frame sent while down is dropped with
  /// DropReason::kLinkDown) or back up — the crash/partition seam for
  /// the edge-failure scenarios. Frames already in flight still deliver.
  /// State *transitions* notify the down observer (see SetDownObserver).
  void SetDown(bool down) {
    if (down_ == down) return;
    down_ = down;
    if (down_observer_) down_observer_(down);
  }
  [[nodiscard]] bool down() const noexcept { return down_; }

  /// Observer invoked on every up<->down transition (with the new state).
  /// The Network installs one per link to give up datagram recovery
  /// when a crash/partition takes the link down mid-train, instead of
  /// leaving it to timers the dead pair can never satisfy.
  using DownObserver = std::function<void(bool down)>;
  void SetDownObserver(DownObserver observer) {
    down_observer_ = std::move(observer);
  }

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Bytes accepted but not yet fully serialized.
  [[nodiscard]] Bytes backlog() const noexcept {
    DrainSerialized();
    return backlog_bytes_;
  }

  /// Link utilization over the sim so far: busy serialization time / now.
  [[nodiscard]] double Utilization() const noexcept;

 private:
  /// Retires frames whose serialization completed by now(). Backlog is
  /// maintained lazily (drained at Send and backlog() queries) instead of
  /// via a scheduled event per frame — that event was half of all link
  /// events and pure bookkeeping, which caps open-loop replay speed.
  void DrainSerialized() const noexcept;

  struct Serializing {
    SimTime done_at;
    Bytes size;
  };

  /// Outcome of admitting one frame for transmission: the loss draws and
  /// the computed delivery time. Shared by the event-scheduling (Send)
  /// and synchronous (Transmit) delivery paths so both consume the rng
  /// identically.
  struct Admission {
    bool lost = false;
    bool forced = false;
    bool down = false;
    SimTime deliver_at;

    [[nodiscard]] DropReason reason() const noexcept {
      return down ? DropReason::kLinkDown
                  : forced ? DropReason::kForced : DropReason::kRandomLoss;
    }
  };

  /// Books `size` bytes through the serialization FIFO, runs the forced/
  /// Bernoulli/burst loss draws and the jitter draw (in that order), and
  /// returns the verdict. Updates frames_sent/busy_time/backlog.
  Admission Admit(Bytes size);

  /// Shared body of Send/SendGather; `tail` is empty for plain sends.
  /// `Deliver` is DeliverFn or GatherDeliverFn.
  template <typename Deliver>
  void SendImpl(Frame head, Frame tail, Deliver on_delivered,
                DropFn on_dropped);

  EventScheduler& sched_;
  std::string name_;
  LinkConfig config_;
  LinkStats stats_;
  Rng rng_;
  DownObserver down_observer_;
  std::uint64_t force_drop_next_ = 0;
  std::uint64_t force_drop_skip_ = 0;
  bool down_ = false;
  bool burst_bad_ = false;  ///< Gilbert–Elliott chain state (bad = bursty).
  SimTime busy_until_ = SimTime::Epoch();
  /// In-serialization frames, FIFO by done_at (busy_until_ is monotone).
  mutable std::deque<Serializing> serializing_;
  mutable Bytes backlog_bytes_ = 0;
};

}  // namespace coic::netsim
