#include "netsim/network.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "proto/envelope.h"
#include "proto/messages.h"

namespace coic::netsim {
namespace {

/// Wire bytes a chunk adds around its data: envelope header, index and
/// count (u16 each) and the blob length prefix.
constexpr std::size_t kChunkOverhead = proto::kEnvelopeHeaderSize + 2 + 2 + 4;

// Both directions of a pair share one LinkConfig wherever the simulator
// builds links (Connect stamps both, and every pipeline topology is
// symmetric), so each end sizes its recovery timers from the direction
// it owns: the sender from the forward link, the receiver from the
// reverse link its NACKs ride.

/// Serialization time of one full chunk on `link`.
Duration ChunkTime(const Link& link, Bytes mtu) {
  return link.config().bandwidth.TransmitTime(kChunkOverhead + mtu);
}

/// A NACK out and the first re-sent chunk back.
Duration RecoveryRoundTrip(const Link& link, Bytes mtu) {
  const LinkConfig& c = link.config();
  return (c.propagation + c.jitter) * 2 + ChunkTime(link, mtu);
}

/// Bytes [off, off + len) of head‖tail as at most two shared slices —
/// a chunk of a gather send never fuses the two segments.
std::pair<Frame, Frame> ChunkSlices(const Frame& head, const Frame& tail,
                                    std::size_t off, std::size_t len) {
  if (off >= head.size()) return {tail.Slice(off - head.size(), len), Frame()};
  if (off + len <= head.size()) return {head.Slice(off, len), Frame()};
  const std::size_t in_head = head.size() - off;
  return {head.Slice(off, in_head), tail.Slice(0, len - in_head)};
}

}  // namespace

NodeId Network::AddNode(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeState{std::move(name), nullptr});
  return id;
}

void Network::SetHandler(NodeId node, MessageHandler handler) {
  COIC_CHECK(node < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void Network::Connect(NodeId a, NodeId b, const LinkConfig& a_to_b,
                      const LinkConfig& b_to_a) {
  ConnectOneWay(a, b, a_to_b);
  ConnectOneWay(b, a, b_to_a);
}

void Network::ConnectOneWay(NodeId from, NodeId to, const LinkConfig& config) {
  COIC_CHECK(from < nodes_.size() && to < nodes_.size());
  COIC_CHECK_MSG(from != to, "self-links are not supported");
  COIC_CHECK_MSG(links_.count(EdgeKey(from, to)) == 0,
                 "nodes already connected");
  // Decorrelate the loss/jitter rng per directed link: many links are
  // stamped from one shared LinkConfig (every wifi link, every peer link
  // of a regular topology), and with a shared seed they would drop
  // exactly the same frame indices — every probe of a broadcast round
  // lost together, which no real network exhibits. Links that never draw
  // (loss 0, jitter 0) are unaffected. The mix depends only on the
  // directed pair, so per-shard networks (which build one direction per
  // link) seed identically to the single-thread engine.
  LinkConfig mixed = config;
  mixed.seed ^= 0x9E3779B97F4A7C15ULL * (EdgeKey(from, to) + 1);
  auto link = std::make_unique<Link>(
      sched_, nodes_[from].name + "->" + nodes_[to].name, mixed);
  // A crash/partition that takes the link down kills the rest of any
  // datagram train mid-flight; give its recovery up at once instead of
  // leaving it to timers (a crashed pair may never answer again).
  link->SetDownObserver([this, from, to](bool down) {
    if (down) OnLinkDown(from, to);
  });
  links_[EdgeKey(from, to)] = std::move(link);
}

void Network::MarkRemote(NodeId node) {
  COIC_CHECK(node < nodes_.size());
  nodes_[node].remote = true;
}

Link& Network::LinkBetween(NodeId from, NodeId to) {
  const auto it = links_.find(EdgeKey(from, to));
  COIC_CHECK_MSG(it != links_.end(), "nodes are not adjacent");
  return *it->second;
}

const Link& Network::LinkBetween(NodeId from, NodeId to) const {
  const auto it = links_.find(EdgeKey(from, to));
  COIC_CHECK_MSG(it != links_.end(), "nodes are not adjacent");
  return *it->second;
}

bool Network::Adjacent(NodeId from, NodeId to) const {
  return links_.count(EdgeKey(from, to)) > 0;
}

void Network::EnableDatagram(Bytes mtu) {
  COIC_CHECK_MSG(mtu > 0, "datagram mtu must be positive");
  datagram_.enabled = true;
  datagram_.mtu = mtu;
}

void Network::Dispatch(NodeId from, NodeId to, Frame payload, Frame tail) {
  COIC_CHECK(to < nodes_.size());
  COIC_CHECK_MSG(!nodes_[to].remote,
                 "local dispatch to a remote node (send path missed the "
                 "remote divert)");
  auto& handler = nodes_[to].handler;
  COIC_CHECK_MSG(handler != nullptr,
                 "frame delivered to node without a handler");
  handler(from, std::move(payload), std::move(tail));
}

void Network::DeliverRemote(NodeId from, NodeId to, Frame payload,
                            Frame tail) {
  COIC_CHECK(to < nodes_.size());
  COIC_CHECK_MSG(!nodes_[to].remote,
                 "cross-shard frame arrived at a node this shard does not own");
  if (datagram_.enabled && payload.size() >= proto::kEnvelopeHeaderSize) {
    switch (proto::PeekMessageType(payload.span())) {
      case proto::MessageType::kDatagramChunk:
        OnChunkFrame(from, to, payload);
        return;
      case proto::MessageType::kDatagramNack:
        // A NACK travels receiver -> sender; its train is keyed by the
        // data direction.
        OnNackFrame(to, from, payload);
        return;
      default:
        break;
    }
  }
  Dispatch(from, to, std::move(payload), std::move(tail));
}

void Network::Send(NodeId from, NodeId to, Frame payload,
                   Link::DropFn on_dropped) {
  SendGather(from, to, std::move(payload), Frame(), std::move(on_dropped));
}

void Network::SendGather(NodeId from, NodeId to, Frame head, Frame tail,
                         Link::DropFn on_dropped) {
  if (datagram_.enabled && head.size() + tail.size() > datagram_.mtu) {
    SendChunked(from, to, std::move(head), std::move(tail),
                std::move(on_dropped));
    return;
  }
  if (nodes_[to].remote) {
    // The cross-shard handoff carries the pair as sent: the cloud on
    // shard 0 replies to edges on every shard with a header and its
    // shared result payload.
    SendRemote(from, to, std::move(head), std::move(tail),
               std::move(on_dropped));
    return;
  }
  LinkBetween(from, to).SendGather(
      std::move(head), std::move(tail),
      [this, from, to](Frame delivered, Frame delivered_tail) {
        Dispatch(from, to, std::move(delivered), std::move(delivered_tail));
      },
      std::move(on_dropped));
}

void Network::SendRemote(NodeId from, NodeId to, Frame head, Frame tail,
                         Link::DropFn on_dropped) {
  COIC_CHECK_MSG(remote_dispatch_ != nullptr,
                 "send to a remote node without a dispatch hook");
  const Link::Verdict v =
      LinkBetween(from, to).Transmit(head.size() + tail.size());
  if (v.delivered) {
    remote_dispatch_(from, to, v.deliver_at, std::move(head), std::move(tail));
  } else if (on_dropped) {
    on_dropped(v.reason, Frame::Fuse(std::move(head), tail));
  }
}

// ------------------------------- sender side -------------------------------

void Network::SendChunked(NodeId from, NodeId to, Frame head, Frame tail,
                          Link::DropFn on_dropped) {
  const std::size_t total = head.size() + tail.size();
  const std::size_t mtu = datagram_.mtu;
  const std::size_t count = (total + mtu - 1) / mtu;
  COIC_CHECK_MSG(count <= 0xFFFF, "payload needs more than 65535 chunks");
  ++datagram_stats_.messages_fragmented;

  TxPair& tx = tx_[EdgeKey(from, to)];
  Train& t = tx.held.emplace_back();
  t.seq = ++tx.next_seq;
  t.head = std::move(head);
  t.tail = std::move(tail);
  t.on_dropped = std::move(on_dropped);
  t.count = static_cast<std::uint16_t>(count);
  t.missing.assign(count, true);
  t.missing_count = count;
  t.resent.assign(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    TransmitChunk(from, to, tx, t, static_cast<std::uint16_t>(i));
  }
  ExtendHold(from, to, tx, t);
  ArmHoldTimer(from, to, t);
}

void Network::TransmitChunk(NodeId from, NodeId to, TxPair& tx, Train& t,
                            std::uint16_t index) {
  const std::size_t mtu = datagram_.mtu;
  const std::size_t off = static_cast<std::size_t>(index) * mtu;
  const std::size_t len = std::min(mtu, t.size() - off);
  const Link::Verdict v = LinkBetween(from, to).Transmit(kChunkOverhead + len);
  ++datagram_stats_.chunks_sent;
  tx.last_arrival = std::max(tx.last_arrival, v.deliver_at);
  if (!v.delivered) {
    t.last_loss = v.reason;
    return;
  }
  if (t.missing[index]) {
    t.missing[index] = false;
    --t.missing_count;
    t.complete_at = std::max(t.complete_at, v.deliver_at);
  }
  auto [a, b] = ChunkSlices(t.head, t.tail, off, len);
  if (nodes_[to].remote) {
    // Crossing to another shard's thread: the chunk gets a buffer of its
    // own, encoded exactly as DatagramChunk::Encode would.
    COIC_CHECK_MSG(remote_dispatch_ != nullptr,
                   "send to a remote node without a dispatch hook");
    ByteWriter w(kChunkOverhead + len);
    proto::AppendEnvelopeHeader(
        w, proto::MessageType::kDatagramChunk, t.seq,
        static_cast<std::uint32_t>(kChunkOverhead + len -
                                   proto::kEnvelopeHeaderSize));
    w.WriteU16(index);
    w.WriteU16(t.count);
    w.WriteU32(static_cast<std::uint32_t>(len));
    w.WriteRaw(a.span());
    w.WriteRaw(b.span());
    remote_dispatch_(from, to, v.deliver_at, Frame(w.TakeBytes()), Frame());
  } else {
    // Same shard: the arrival carries the slices themselves, and the
    // receiver keeps them by reference.
    sched_.ScheduleAt(v.deliver_at, [this, from, to, seq = t.seq, index,
                                     count = t.count, a = std::move(a),
                                     b = std::move(b)]() mutable {
      OnChunk(from, to, seq, index, count, std::move(a), std::move(b));
    });
  }
}

void Network::ExtendHold(NodeId from, NodeId to, const TxPair& tx,
                         Train& t) {
  // The receiver notices a loss within one quiet period of the pair's
  // last arrival and waits out kMaxSilentRounds more before it gives up;
  // a quiet period is at most a round trip plus the missing chunks.
  const Link& link = LinkBetween(from, to);
  const std::size_t mtu = datagram_.mtu;
  const Duration quiet =
      RecoveryRoundTrip(link, mtu) +
      ChunkTime(link, mtu) * static_cast<std::int64_t>(t.missing_count + 1);
  t.hold_until =
      std::max(t.hold_until, tx.last_arrival + quiet * (kMaxSilentRounds + 1));
}

void Network::ArmHoldTimer(NodeId from, NodeId to, Train& t) {
  t.hold_timer = sched_.ScheduleAt(
      t.hold_until, [this, from, to, seq = t.seq] { OnHoldTimer(from, to, seq); });
}

void Network::OnHoldTimer(NodeId from, NodeId to, std::uint64_t seq) {
  const auto pair = tx_.find(EdgeKey(from, to));
  if (pair == tx_.end()) return;
  TxPair& tx = pair->second;
  std::vector<Train>& held = tx.held;
  const auto it = std::find_if(held.begin(), held.end(),
                               [seq](const Train& t) { return t.seq == seq; });
  if (it == held.end()) return;
  it->hold_timer = 0;
  // A receiver in recovery defers its verdict while chunks of later
  // trains keep landing on the pair (its NACK may have been lost, or be
  // queued behind them); so a train its link dropped a chunk of stays
  // held on the same clock.
  if (it->missing_count > 0) ExtendHold(from, to, tx, *it);
  if (it->hold_until > sched_.now()) {
    // The window moved out since this timer was armed.
    ArmHoldTimer(from, to, *it);
    return;
  }
  Train t = std::move(*it);
  held.erase(it);
  GiveUp(std::move(t));
}

void Network::OnNackFrame(NodeId from, NodeId to, const Frame& frame) {
  const auto env = proto::DecodeEnvelopeView(frame.span());
  COIC_CHECK_MSG(env.ok(), "malformed datagram nack envelope");
  const auto nack = proto::DecodePayloadAs<proto::DatagramNackView>(
      env.value(), proto::MessageType::kDatagramNack);
  COIC_CHECK_MSG(nack.ok(), "malformed datagram nack payload");
  const auto pair = tx_.find(EdgeKey(from, to));
  if (pair == tx_.end()) return;
  TxPair& tx = pair->second;
  std::vector<Train>& held = tx.held;
  const std::uint64_t seq = env.value().request_id;
  const auto it = std::find_if(held.begin(), held.end(),
                               [seq](const Train& t) { return t.seq == seq; });
  // Past its window the frame is gone; the receiver will give up.
  if (it == held.end()) return;
  // The first report of a lost chunk is free — at most one per chunk of
  // the train. A round that asks again for a chunk already re-sent is a
  // retry of recovery itself, and those are budgeted.
  bool repeat = false;
  for (std::size_t i = 0; i < nack.value().size(); ++i) {
    const std::uint16_t index = nack.value()[i];
    repeat = repeat || (index < it->count && it->resent[index]);
  }
  if (repeat && it->nack_rounds++ == kMaxNackRounds) {
    Train t = std::move(*it);
    held.erase(it);
    GiveUp(std::move(t));
    return;
  }
  for (std::size_t i = 0; i < nack.value().size(); ++i) {
    const std::uint16_t index = nack.value()[i];
    if (index >= it->count) continue;
    it->resent[index] = true;
    TransmitChunk(from, to, tx, *it, index);
    ++datagram_stats_.chunks_retransmitted;
  }
  ExtendHold(from, to, tx, *it);
}

void Network::GiveUp(Train t) {
  if (t.hold_timer != 0) sched_.Cancel(t.hold_timer);
  const bool arrived = t.missing_count == 0 && t.complete_at <= sched_.now();
  if (arrived || !t.on_dropped) return;
  // The caller gets its message back whole, as DropFn promises (a
  // gather send's pair fused, and counted). Nothing lost but not all
  // landed yet: a link went down under it.
  t.on_dropped(t.missing_count > 0 ? t.last_loss : DropReason::kLinkDown,
               Frame::Fuse(std::move(t.head), t.tail));
}

// ------------------------------ receiver side ------------------------------

void Network::OnChunkFrame(NodeId from, NodeId to, const Frame& frame) {
  const auto env = proto::DecodeEnvelopeView(frame.span());
  COIC_CHECK_MSG(env.ok(), "malformed datagram chunk envelope");
  const auto chunk = proto::DecodePayloadAs<proto::DatagramChunkView>(
      env.value(), proto::MessageType::kDatagramChunk);
  COIC_CHECK_MSG(chunk.ok(), "malformed datagram chunk payload");
  OnChunk(from, to, env.value().request_id, chunk.value().chunk_index,
          chunk.value().chunk_count, frame.SliceOf(chunk.value().data),
          Frame());
}

void Network::OnChunk(NodeId from, NodeId to, std::uint64_t seq,
                      std::uint16_t index, std::uint16_t count, Frame a,
                      Frame b) {
  RxPair& rx = rx_[EdgeKey(from, to)];
  rx.last_arrival = sched_.now();
  auto it = std::find_if(rx.open.begin(), rx.open.end(),
                         [seq](const Partial& p) { return p.seq == seq; });
  if (it == rx.open.end()) {
    // Links are FIFO: a train at or below the newest seen that is not
    // open was already reassembled or given up. This is a late copy.
    if (seq <= rx.newest_seq) return;
    rx.newest_seq = seq;
    if (rx.open.size() == kMaxOpenTrains) Discard(rx, rx.open.begin());
    // A newer train has started, so every older open train has seen the
    // last of its original chunks: whatever it lacks past its frontier
    // died on the wire.
    for (Partial& older : rx.open) {
      if (older.frontier < older.count) {
        SendNack(from, to, older, older.frontier, older.count);
        older.frontier = older.count;
      }
    }
    Partial& p = rx.open.emplace_back();
    p.seq = seq;
    p.count = count;
    p.have.assign(count, false);
    p.data.resize(count);
    ArmQuietTimer(from, to, p, sched_.now() + QuietLimit(from, to, p));
    it = rx.open.end() - 1;
  }

  Partial& p = *it;
  const std::size_t len = a.size() + b.size();
  COIC_CHECK_MSG(count == p.count, "chunk count changed mid-train");
  COIC_CHECK_MSG(index + 1 == count ? len <= datagram_.mtu
                                    : len == datagram_.mtu,
                 "chunk size does not match the datagram mtu");
  if (p.have[index]) return;  // a duplicate re-send
  if (index >= p.frontier) {
    // An original chunk: any index it skipped over was lost.
    if (index > p.frontier) SendNack(from, to, p, p.frontier, index);
    p.frontier = static_cast<std::uint16_t>(index + 1);
  } else {
    p.recovered = true;
  }
  p.data[index] = {std::move(a), std::move(b)};
  p.have[index] = true;
  ++p.received;
  p.silent_rounds = 0;
  if (p.received < p.count) return;

  // The message is rebuilt from the chunks that arrived. Slices of one
  // buffer that meet end to end rejoin in place, which gives back the
  // sender's own segments: one for a plain send, head and tail for a
  // gather.
  std::vector<Frame> segments;
  for (auto& [first, second] : p.data) {
    for (Frame* slice : {&first, &second}) {
      if (slice->empty()) continue;
      if (segments.empty() || !segments.back().ExtendWith(*slice)) {
        segments.push_back(std::move(*slice));
      }
    }
  }
  if (p.timer != 0) sched_.Cancel(p.timer);
  ++datagram_stats_.messages_reassembled;
  if (p.recovered) ++datagram_stats_.messages_recovered;
  rx.open.erase(it);
  if (nodes_[from].remote) {
    // Chunks from another shard are encoded frames of their own, which
    // never rejoin and split the message at mtu boundaries no decoder
    // expects: one counted fuse.
    Dispatch(from, to, Frame::Fuse(segments), Frame());
    return;
  }
  COIC_CHECK_MSG(segments.size() <= 2, "reassembled train lost its segments");
  Frame tail = segments.size() == 2 ? std::move(segments[1]) : Frame();
  Dispatch(from, to, std::move(segments[0]), std::move(tail));
}

void Network::SendNack(NodeId from, NodeId to, Partial& p, std::uint16_t lo,
                       std::uint16_t hi) {
  // One NACK rides one unfragmented frame; indices past what fits wait
  // for the next round.
  constexpr std::size_t kNackOverhead = proto::kEnvelopeHeaderSize + 2;
  const std::size_t cap =
      datagram_.mtu > kNackOverhead + 2 ? (datagram_.mtu - kNackOverhead) / 2
                                        : 1;
  proto::DatagramNack nack;
  for (std::uint32_t i = lo; i < hi && nack.missing.size() < cap; ++i) {
    if (!p.have[i]) nack.missing.push_back(static_cast<std::uint16_t>(i));
  }
  if (nack.missing.empty()) return;
  p.last_nack = sched_.now();
  ++datagram_stats_.nacks_sent;
  Frame frame(
      proto::EncodeMessage(proto::MessageType::kDatagramNack, p.seq, nack));
  if (nodes_[from].remote) {
    SendRemote(to, from, std::move(frame), Frame(), nullptr);
    return;
  }
  LinkBetween(to, from).Send(std::move(frame),
                             [this, from, to](Frame delivered) {
                               OnNackFrame(from, to, delivered);
                             });
}

Duration Network::QuietLimit(NodeId from, NodeId to, const Partial& p) const {
  const Link& reverse = LinkBetween(to, from);
  const std::size_t mtu = datagram_.mtu;
  const Duration chunk = ChunkTime(reverse, mtu);
  if (p.frontier < p.count) {
    // Original chunks still streaming back to back: the rest of the
    // train, plus one chunk of slack.
    return chunk * static_cast<std::int64_t>(p.count - p.frontier + 1);
  }
  // Everything missing has been NACKed: the NACK waits behind what this
  // end already queued on the reverse link, crosses, and the missing
  // chunks come back.
  return RecoveryRoundTrip(reverse, mtu) +
         reverse.config().bandwidth.TransmitTime(reverse.backlog()) +
         chunk * static_cast<std::int64_t>(p.count - p.received + 1);
}

void Network::ArmQuietTimer(NodeId from, NodeId to, Partial& p, SimTime at) {
  p.timer = sched_.ScheduleAt(
      at, [this, from, to, seq = p.seq] { OnQuietTimer(from, to, seq); });
}

void Network::OnQuietTimer(NodeId from, NodeId to, std::uint64_t seq) {
  const auto pair = rx_.find(EdgeKey(from, to));
  if (pair == rx_.end()) return;
  RxPair& rx = pair->second;
  const auto it = std::find_if(rx.open.begin(), rx.open.end(),
                               [seq](const Partial& p) { return p.seq == seq; });
  if (it == rx.open.end()) return;
  Partial& p = *it;
  p.timer = 0;
  const SimTime now = sched_.now();
  // Any arrival on the pair, or a NACK of our own, restarts the clock:
  // chunks still draining through the link may be ahead of ours.
  const SimTime quiet_until =
      std::max(rx.last_arrival, p.last_nack) + QuietLimit(from, to, p);
  if (quiet_until > now) {
    ArmQuietTimer(from, to, p, quiet_until);
    return;
  }
  if (p.silent_rounds == kMaxSilentRounds) {
    Discard(rx, it);
    return;
  }
  ++p.silent_rounds;
  SendNack(from, to, p, 0, p.count);
  p.frontier = p.count;
  ArmQuietTimer(from, to, p, now + QuietLimit(from, to, p));
}

void Network::Discard(RxPair& rx, std::vector<Partial>::iterator it) {
  if (it->timer != 0) sched_.Cancel(it->timer);
  rx.open.erase(it);
  ++datagram_stats_.partials_discarded;
}

void Network::OnLinkDown(NodeId from, NodeId to) {
  // Receiver side: the trains this link feeds (present when one network
  // owns both ends) and the trains whose NACKs it carries.
  for (const std::uint64_t key : {EdgeKey(from, to), EdgeKey(to, from)}) {
    const auto pair = rx_.find(key);
    if (pair == rx_.end()) continue;
    RxPair& rx = pair->second;
    while (!rx.open.empty()) Discard(rx, rx.open.begin());
  }
  // Sender side: the trains on this link. Moved out first — on_dropped
  // may send again on this very pair.
  const auto pair = tx_.find(EdgeKey(from, to));
  if (pair == tx_.end()) return;
  std::vector<Train> dying = std::move(pair->second.held);
  pair->second.held.clear();
  for (Train& t : dying) GiveUp(std::move(t));
}

const std::string& Network::NodeName(NodeId id) const {
  COIC_CHECK(id < nodes_.size());
  return nodes_[id].name;
}

}  // namespace coic::netsim
