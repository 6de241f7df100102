// Network topology: named nodes joined by duplex link pairs, with
// handler-based message dispatch.
//
// This is the substrate the CoIC pipelines run on. The three-tier layout
// of the paper (mobile -> edge -> cloud) is just a Network with three
// nodes and two duplex links whose bandwidths are swept per Figure 2a's
// x-axis (B_M->E, B_E->C).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/frame.h"
#include "netsim/link.h"
#include "netsim/scheduler.h"

namespace coic::netsim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFF;

/// Receives frames addressed to a node. `from` is the sending node. A
/// frame sent with Network::SendGather arrives as its two segments,
/// `payload` (the head) and `tail`, never joined; every other frame
/// arrives whole in `payload` with an empty `tail`.
using MessageHandler =
    std::function<void(NodeId from, Frame payload, Frame tail)>;

/// Datagram (unreliable, MTU-bounded) transport mode. Off by default:
/// the reliable mode delivers any frame size in one piece, which is the
/// stream-transport model every pre-loss bench row was measured under.
/// When enabled, frames larger than `mtu` are fragmented into a train of
/// kDatagramChunk envelopes that share a per-directed-pair sequence
/// number, and lost chunks are recovered selectively:
///
///   * The receiver writes chunk i at offset i × mtu of a buffer reserved
///     to the message size and marks it in a bitmap. Several trains of
///     one pair may be open at once (at most kMaxOpenTrains; opening one
///     more abandons the oldest).
///   * Links are FIFO, so a gap means loss: a chunk past the next
///     expected index, or the first chunk of a newer train while an older
///     one still lacks its tail, makes the receiver send a kDatagramNack
///     with the missing indices on the reverse link at once.
///   * A lost tail with nothing behind it shows only as silence. One
///     timer per train fires once the pair has been quiet for longer than
///     the rest of the train plus a NACK round trip would take, sized
///     from the reverse link the receiver owns, and NACKs what is missing.
///   * The sender holds the original refcounted frame for a recovery
///     window and re-sends only the NACKed chunks from it. The first
///     report of each lost chunk is always served; at most kMaxNackRounds
///     rounds that ask again for an already re-sent chunk are.
///   * A train is given up when its receiver's NACKs go unanswered for
///     kMaxSilentRounds timer periods, when the sender's window ends or
///     its round budget is spent, or when a link of the pair goes down.
///     The receiver counts the partial in partials_discarded; the sender
///     fires the caller's on_dropped once if the message never fully
///     arrived. The request-level retry above takes over from there.
struct DatagramConfig {
  bool enabled = false;
  /// Maximum chunk *data* bytes. A frame whose total size is <= mtu
  /// rides unfragmented (no chunk header overhead on small frames).
  Bytes mtu = 16 * 1024;
};

/// Aggregate datagram-mode counters.
struct DatagramStats {
  std::uint64_t messages_fragmented = 0;
  /// Chunk transmissions, retransmits included.
  std::uint64_t chunks_sent = 0;
  std::uint64_t messages_reassembled = 0;
  /// Partials given up by their receiver: unanswered NACKs, an evicted
  /// oldest train, or a link of the pair going down mid-train.
  std::uint64_t partials_discarded = 0;
  std::uint64_t nacks_sent = 0;
  /// Chunks re-sent in answer to a NACK (a subset of chunks_sent).
  std::uint64_t chunks_retransmitted = 0;
  /// Reassembled messages that needed at least one re-sent chunk (a
  /// subset of messages_reassembled).
  std::uint64_t messages_recovered = 0;
};

class Network {
 public:
  /// Trains of one directed pair a receiver keeps open at once.
  static constexpr std::size_t kMaxOpenTrains = 8;
  /// NACK rounds per train a sender serves that ask again for a chunk
  /// it already re-sent (first reports of a loss are free); the next
  /// such round gives the train up.
  static constexpr std::uint32_t kMaxNackRounds = 8;
  /// Quiet-timer periods without progress a receiver waits out (NACKing
  /// each time) before giving a train up.
  static constexpr std::uint32_t kMaxSilentRounds = 3;

  explicit Network(EventScheduler& sched) : sched_(sched) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node; name is used in link names and diagnostics.
  NodeId AddNode(std::string name);

  /// Installs (or replaces) the frame handler for `node`.
  void SetHandler(NodeId node, MessageHandler handler);

  /// Connects a and b with a pair of unidirectional links.
  void Connect(NodeId a, NodeId b, const LinkConfig& a_to_b,
               const LinkConfig& b_to_a);

  /// Symmetric convenience overload.
  void Connect(NodeId a, NodeId b, const LinkConfig& both) {
    Connect(a, b, both, both);
  }

  /// Creates only the directed from->to link. The sharded engine builds
  /// each shard's Network with exactly the links whose *sender* the
  /// shard owns; the per-link rng seed mixing is identical to Connect's,
  /// so a sharded cluster draws the same loss/jitter sequence per link
  /// as the single-thread engine.
  void ConnectOneWay(NodeId from, NodeId to, const LinkConfig& config);

  /// Marks `node` as owned by another shard: frames sent to it still run
  /// the full local link model (serialization, loss, jitter), but the
  /// surviving frame is handed to the remote-dispatch hook synchronously
  /// at *send* time, stamped with its computed delivery time — the
  /// conservative-PDES handoff that gives the receiving shard a full
  /// lookahead window of warning. Datagram chunks and NACKs cross the
  /// hook as ordinary frames; reassembly runs on the receiver's shard.
  void MarkRemote(NodeId node);
  [[nodiscard]] bool IsRemote(NodeId node) const {
    return nodes_.at(node).remote;
  }
  /// One hook per Network: receives (from, to, deliver_at, payload) for
  /// every surviving frame addressed to a remote node. The sharded
  /// engine enqueues it on the owning shard's inbox; that shard
  /// schedules the arrival at deliver_at on its own clock.
  using RemoteDispatchFn =
      std::function<void(NodeId from, NodeId to, SimTime deliver_at,
                         Frame payload)>;
  void SetRemoteDispatch(RemoteDispatchFn fn) {
    remote_dispatch_ = std::move(fn);
  }

  /// Entry point for frames arriving from another shard. The sending
  /// shard already modeled the link (this is the receiving half of the
  /// remote-dispatch hook), so no further delay applies here. Datagram
  /// chunks and NACKs go to this Network's recovery state; every other
  /// frame goes to `to`'s handler.
  void DeliverRemote(NodeId from, NodeId to, Frame payload);

  /// The directed link from->to. CHECK-fails if the nodes are not
  /// adjacent; topology is static after setup by design.
  Link& LinkBetween(NodeId from, NodeId to);
  [[nodiscard]] const Link& LinkBetween(NodeId from, NodeId to) const;
  [[nodiscard]] bool Adjacent(NodeId from, NodeId to) const;

  /// Sends `payload` from->to through the connecting link. Delivery
  /// invokes the destination handler at the simulated delivery time.
  /// Drops (loss/overflow) invoke `on_dropped` if provided — for a chunk
  /// train, once, and only when recovery gives the message up. The frame
  /// is shared, not copied: broadcast senders pass the same Frame to
  /// many Send calls.
  void Send(NodeId from, NodeId to, Frame payload,
            Link::DropFn on_dropped = nullptr);

  /// Scatter-gather Send: `head` and `tail` travel as one frame and a
  /// local receiver's handler gets them as they were sent (see
  /// Link::SendGather); nothing joins them on the way. Under datagram
  /// mode a combined size above the MTU is chunked straight from the two
  /// segments and reassembled into one buffer at the receiver, the copy
  /// chunking always costs. A receiver owned by another shard gets the
  /// pair fused at send time (the cross-shard handoff carries one frame),
  /// and a dropped pair is handed back fused; both fuses are counted in
  /// frame_stats() (Frame::Fuse).
  void SendGather(NodeId from, NodeId to, Frame head, Frame tail,
                  Link::DropFn on_dropped = nullptr);

  /// Switches every node pair to datagram transport (see DatagramConfig).
  /// Call during setup, before traffic flows.
  void EnableDatagram(Bytes mtu);
  [[nodiscard]] const DatagramConfig& datagram_config() const noexcept {
    return datagram_;
  }
  [[nodiscard]] const DatagramStats& datagram_stats() const noexcept {
    return datagram_stats_;
  }

  /// Visits every directed link once (stats aggregation in benches and
  /// diagnostics; iteration order is unspecified).
  void ForEachLink(const std::function<void(const Link&)>& fn) const {
    for (const auto& [key, link] : links_) fn(*link);
  }

  /// Mutable visit — the chaos engine's lever for cluster-wide condition
  /// changes (burst-loss windows touch every link at once). Distinct
  /// name: an overload would make const-visitor lambdas ambiguous.
  void ForEachMutableLink(const std::function<void(Link&)>& fn) {
    for (auto& [key, link] : links_) fn(*link);
  }

  [[nodiscard]] const std::string& NodeName(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] EventScheduler& scheduler() noexcept { return sched_; }

 private:
  struct NodeState {
    std::string name;
    MessageHandler handler;
    /// Owned by another shard: deliveries route via remote_dispatch_.
    bool remote = false;
  };

  /// Sender side: one chunk train held for selective resend. The link
  /// verdicts of its transmissions (the same ones Link::DropFn reports)
  /// tell the sender exactly when, and whether, the receiver has every
  /// chunk. They decide two things only: whether a given-up train fires
  /// on_dropped, and whether a train whose window ran out while the pair
  /// was still busy is kept a little longer.
  struct Train {
    std::uint64_t seq = 0;
    /// The original message as the caller passed it (tail empty for a
    /// plain Send): shared, never copied or fused.
    Frame head;
    Frame tail;
    Link::DropFn on_dropped;
    std::vector<bool> missing;  ///< Chunks no transmission has delivered.
    std::vector<bool> resent;   ///< Chunks re-sent at least once.
    std::size_t missing_count = 0;
    SimTime complete_at;  ///< When the last first-delivered chunk lands.
    SimTime hold_until;   ///< End of the recovery window.
    EventId hold_timer = 0;
    DropReason last_loss = DropReason::kLinkDown;
    std::uint16_t count = 0;
    /// NACK rounds that asked again for an already re-sent chunk.
    std::uint32_t nack_rounds = 0;

    [[nodiscard]] std::size_t size() const noexcept {
      return head.size() + tail.size();
    }
  };
  struct TxPair {
    std::uint64_t next_seq = 0;
    /// Latest (would-be) arrival of any chunk sent on the pair: the
    /// receiver's quiet clock restarts at every chunk it gets.
    SimTime last_arrival;
    std::vector<Train> held;  ///< Oldest first.
  };

  /// Receiver side: one train under reassembly.
  struct Partial {
    std::uint64_t seq = 0;
    std::uint16_t count = 0;
    std::uint16_t received = 0;
    /// Every index below it has arrived or been NACKed (a later original
    /// chunk, or the next train, proved it lost).
    std::uint16_t frontier = 0;
    std::uint32_t silent_rounds = 0;
    bool recovered = false;  ///< A re-sent chunk filled a gap.
    SimTime last_nack;
    EventId timer = 0;
    std::vector<bool> have;
    /// Reserved to count × mtu; chunk i lives at offset i × mtu. Its
    /// size is the end of the highest chunk placed so far (a hole below
    /// it is zero until its retransmit lands).
    ByteVec assembled;
  };
  struct RxPair {
    std::uint64_t newest_seq = 0;  ///< Older seqs not open are closed.
    SimTime last_arrival;          ///< Any chunk of the pair.
    std::vector<Partial> open;     ///< Oldest first.
  };

  static std::uint64_t EdgeKey(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Delivers a frame to `to`'s local handler (terminal step of every
  /// local Send; remote destinations divert to the hook before this).
  /// `tail` is empty unless the frame was sent with SendGather.
  void Dispatch(NodeId from, NodeId to, Frame payload, Frame tail);

  // --- sender side ---------------------------------------------------
  /// Fragments head‖tail into a chunk train on the from->to link and
  /// holds it for recovery.
  void SendChunked(NodeId from, NodeId to, Frame head, Frame tail,
                   Link::DropFn on_dropped);
  /// Runs chunk `index` of `t` through the link and ships its bytes to
  /// the receiver (a scheduled local arrival, or an encoded chunk frame
  /// on the remote hook).
  void TransmitChunk(NodeId from, NodeId to, TxPair& tx, Train& t,
                     std::uint16_t index);
  /// Pushes `t`'s recovery window past the pair's last arrival by long
  /// enough for the receiver to detect a loss and have its NACKs
  /// answered.
  void ExtendHold(NodeId from, NodeId to, const TxPair& tx, Train& t);
  void ArmHoldTimer(NodeId from, NodeId to, Train& t);
  void OnHoldTimer(NodeId from, NodeId to, std::uint64_t seq);
  void OnNackFrame(NodeId from, NodeId to, const Frame& frame);
  /// Ends `t`'s recovery window; fires its on_dropped if the message
  /// never fully arrived.
  void GiveUp(Train t);

  // --- receiver side -------------------------------------------------
  void OnChunkFrame(NodeId from, NodeId to, const Frame& frame);
  /// One chunk arrival; its data is `a` followed by `b` (two slices when
  /// the chunk straddles a gather send's head and tail).
  void OnChunk(NodeId from, NodeId to, std::uint64_t seq, std::uint16_t index,
               std::uint16_t count, std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b);
  /// NACKs every index in [lo, hi) that `p` still lacks, on the reverse
  /// link.
  void SendNack(NodeId from, NodeId to, Partial& p, std::uint16_t lo,
                std::uint16_t hi);
  /// How long the pair may stay quiet before `p` must be missing chunks.
  [[nodiscard]] Duration QuietLimit(NodeId from, NodeId to,
                                    const Partial& p) const;
  void ArmQuietTimer(NodeId from, NodeId to, Partial& p, SimTime at);
  void OnQuietTimer(NodeId from, NodeId to, std::uint64_t seq);
  void Discard(RxPair& rx, std::vector<Partial>::iterator it);

  /// A link went down: trains it carried are given up on both sides, and
  /// so are trains whose NACKs it would carry.
  void OnLinkDown(NodeId from, NodeId to);

  EventScheduler& sched_;
  std::vector<NodeState> nodes_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Link>> links_;
  RemoteDispatchFn remote_dispatch_;
  DatagramConfig datagram_;
  DatagramStats datagram_stats_;
  /// Per directed pair (keyed from->to of the data): the sender's trains
  /// and the receiver's partials. Each lives on the shard that owns that
  /// end of the pair.
  std::unordered_map<std::uint64_t, TxPair> tx_;
  std::unordered_map<std::uint64_t, RxPair> rx_;
};

}  // namespace coic::netsim
