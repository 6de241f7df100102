#include "netsim/link.h"

#include <type_traits>
#include <utility>

namespace coic::netsim {

Link::Link(EventScheduler& sched, std::string name, LinkConfig config)
    : sched_(sched), name_(std::move(name)), config_(config), rng_(config.seed) {
  COIC_CHECK_MSG(config.bandwidth.bps() > 0, "link bandwidth must be positive");
  COIC_CHECK_MSG(config.loss_rate >= 0 && config.loss_rate < 1,
                 "loss rate must be in [0, 1)");
}

void Link::DrainSerialized() const noexcept {
  const SimTime now = sched_.now();
  while (!serializing_.empty() && serializing_.front().done_at <= now) {
    COIC_CHECK(backlog_bytes_ >= serializing_.front().size);
    backlog_bytes_ -= serializing_.front().size;
    serializing_.pop_front();
  }
}

void Link::Send(Frame payload, DeliverFn on_delivered, DropFn on_dropped) {
  SendImpl(std::move(payload), Frame(), std::move(on_delivered),
           std::move(on_dropped));
}

void Link::SendGather(Frame head, Frame tail, GatherDeliverFn on_delivered,
                      DropFn on_dropped) {
  COIC_CHECK_MSG(!tail.empty(), "gather send without a tail segment");
  SendImpl(std::move(head), std::move(tail), std::move(on_delivered),
           std::move(on_dropped));
}

Link::Admission Link::Admit(Bytes size) {
  const SimTime now = sched_.now();
  const SimTime start = std::max(now, busy_until_);
  const Duration tx = config_.bandwidth.TransmitTime(size);
  busy_until_ = start + tx;
  backlog_bytes_ += size;
  ++stats_.frames_sent;
  stats_.busy_time += tx;

  // Forced drops (test seam / link down) take precedence but still
  // consume the frame's ordinary loss draws, so injecting one never
  // shifts which of the surrounding frames the loss processes kill.
  Admission a;
  a.down = down_;
  a.forced = a.down;
  if (!a.forced && force_drop_next_ > 0) {
    if (force_drop_skip_ > 0) {
      --force_drop_skip_;
    } else {
      --force_drop_next_;
      a.forced = true;
    }
  }
  bool random_loss = config_.loss_rate > 0 && rng_.NextBool(config_.loss_rate);
  if (config_.burst_loss.enabled) {
    // Gilbert–Elliott chain: one transition draw, then the per-state
    // loss draw, both per accepted frame.
    const double flip = burst_bad_ ? config_.burst_loss.bad_to_good
                                   : config_.burst_loss.good_to_bad;
    if (flip > 0 && rng_.NextBool(flip)) burst_bad_ = !burst_bad_;
    const double p = burst_bad_ ? config_.burst_loss.bad_loss_rate
                                : config_.burst_loss.good_loss_rate;
    if (p > 0 && rng_.NextBool(p)) random_loss = true;
  }
  a.lost = a.forced || random_loss;
  Duration extra = config_.propagation;
  if (config_.jitter > Duration::Zero()) {
    extra += Duration::Micros(static_cast<std::int64_t>(
        rng_.NextDouble() * static_cast<double>(config_.jitter.micros())));
  }
  const SimTime serialized_at = busy_until_;
  a.deliver_at = serialized_at + extra;

  // Queue space frees at serialization completion; drained lazily at the
  // next Send/backlog call instead of costing a scheduled event.
  serializing_.push_back({serialized_at, size});
  return a;
}

template <typename Deliver>
void Link::SendImpl(Frame head, Frame tail, Deliver on_delivered,
                    DropFn on_dropped) {
  COIC_CHECK(on_delivered != nullptr);
  const Bytes size = head.size() + tail.size();

  DrainSerialized();
  if (config_.queue_capacity != 0 &&
      backlog_bytes_ + size > config_.queue_capacity) {
    ++stats_.frames_dropped_queue;
    if (on_dropped) {
      on_dropped(DropReason::kQueueOverflow,
                 Frame::Fuse(std::move(head), tail));
    }
    return;
  }

  const Admission a = Admit(size);

  // Delivery (or loss) after propagation — the only scheduled event.
  // The handler gets the frame exactly as sent: a plain send's one
  // reference (so it may patch a uniquely-held buffer in place without
  // tripping copy-on-write), a gather send's two segments unjoined.
  auto deliver = [this, size, a, head = std::move(head),
                  tail = std::move(tail),
                  on_delivered = std::move(on_delivered),
                  on_dropped = std::move(on_dropped)]() mutable {
    if (a.lost) {
      ++stats_.frames_dropped_loss;
      if (a.down) ++stats_.frames_dropped_down;
      if (on_dropped) {
        on_dropped(a.reason(), Frame::Fuse(std::move(head), tail));
      }
      return;
    }
    ++stats_.frames_delivered;
    stats_.bytes_delivered += size;
    if constexpr (std::is_same_v<Deliver, GatherDeliverFn>) {
      on_delivered(std::move(head), std::move(tail));
    } else {
      on_delivered(std::move(head));
    }
  };
  sched_.ScheduleAt(a.deliver_at, std::move(deliver));
}

void Link::SendTimed(Frame payload, TimedDeliverFn on_delivered,
                     DropFn on_dropped) {
  COIC_CHECK(on_delivered != nullptr);
  const Verdict v = Transmit(payload.size());
  if (v.delivered) {
    on_delivered(v.deliver_at, std::move(payload));
  } else if (on_dropped) {
    on_dropped(v.reason, std::move(payload));
  }
}

Link::Verdict Link::Transmit(Bytes size) {
  DrainSerialized();
  Verdict v;
  v.deliver_at = sched_.now();
  if (config_.queue_capacity != 0 &&
      backlog_bytes_ + size > config_.queue_capacity) {
    ++stats_.frames_dropped_queue;
    v.reason = DropReason::kQueueOverflow;
    return v;
  }

  const Admission a = Admit(size);
  v.deliver_at = a.deliver_at;
  if (a.lost) {
    // Loss bookkeeping lands at send time here (at delivery time on the
    // event path); final counter totals are identical either way.
    ++stats_.frames_dropped_loss;
    if (a.down) ++stats_.frames_dropped_down;
    v.reason = a.reason();
    return v;
  }
  ++stats_.frames_delivered;
  stats_.bytes_delivered += size;
  v.delivered = true;
  return v;
}

double Link::Utilization() const noexcept {
  const std::int64_t elapsed = sched_.now().micros();
  if (elapsed <= 0) return 0;
  const double busy = static_cast<double>(stats_.busy_time.micros());
  const double util = busy / static_cast<double>(elapsed);
  return util > 1.0 ? 1.0 : util;
}

}  // namespace coic::netsim
