// coic_bench — one repetition of one CoIC benchmark workload.
//
//   coic_bench --workload NAME [--seed S] [--scale F] [--trace]
//
// Builds the workload's inputs from the seed, replays them through the
// public FederationPipeline API and prints that repetition's measurements
// as one JSON object on one line. benchmark/run.py drives it: it runs
// repetitions in separate processes (so peak RSS is per repetition),
// aggregates them and checks the correctness oracles.
//
// What one line holds:
//   * the outcome stream's digest and drain counts (the oracles' inputs);
//   * wall time of set-up (pipeline construction + RegisterModel +
//     EnqueuePlaced) and of the run, and the process's peak RSS;
//   * simulated QoE: p50/p99 latency, hit rate, success and deadline rates;
//   * per-layer work counts read from the program's existing counters and
//     accessors, divided by issued operations;
//   * with --trace: exact per-phase quantiles from the tracer's completed
//     spans (never from its bucketed histograms), then the layer replay:
//     wall time per call of each layer's public functions, replayed
//     outside the pipeline on this workload's own inputs.
//
// The traced pass always runs on one worker: the tracer of a sharded
// pipeline is per shard, and the deterministic sharded engine's outcomes
// equal the single-thread engine's (run.py checks the digests).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/ic_cache.h"
#include "common/bytes.h"
#include "common/frame.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/client.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "federation/summary.h"
#include "netsim/scheduler.h"
#include "obs/trace.h"
#include "proto/envelope.h"
#include "proto/messages.h"
#include "render/loader.h"
#include "render/panorama.h"
#include "trace/workload.h"
#include "vision/features.h"
#include "vision/image.h"

namespace coic {
namespace {

using federation::FederationOutcome;
using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using Clock = std::chrono::steady_clock;

/// The display budget a result must meet (the chaos soak's budget).
constexpr double kDeadlineMs = 2500;
/// Mixed-trace constants shared by the three mixed workloads.
constexpr std::uint64_t kVideoId = 7;
constexpr std::uint32_t kMixedObjects = 12;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  FederationPipelineConfig config;
  std::vector<trace::PlacedRecord> trace;
  /// (model id, serialized size) registered with the cloud before the run.
  std::vector<std::pair<std::uint64_t, Bytes>> models;
  bool closed_loop = false;
};

/// Settings every workload shares: a full mesh with summary-directed
/// probing, 100 ms gossip, and provisioned metro links.
FederationPipelineConfig BaseConfig(std::uint32_t venues,
                                    std::uint32_t mobiles) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.mobiles_per_venue = mobiles;
  config.topology = federation::TopologyKind::kFullMesh;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(100);
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  return config;
}

trace::ClusterWorkloadConfig BaseTrace(std::uint32_t venues,
                                       std::uint32_t users,
                                       std::uint64_t seed) {
  trace::ClusterWorkloadConfig wl;
  wl.venues = venues;
  wl.base.users = users;
  wl.base.seed = seed;
  wl.placement_seed = seed + 4;
  return wl;
}

/// GenerateMixed: recognition/render/panorama at 6:3:1 over 12 objects and
/// 12 models of 256 KB + 8 KB·m, video 7, a 32x32 extraction raster,
/// re-timed as one Poisson stream at `rate_hz`.
void MakeMixed(Workload& w, std::uint32_t venues, std::uint32_t mobiles,
               std::size_t ops, double rate_hz, std::uint64_t seed) {
  trace::ClusterWorkloadConfig wl = BaseTrace(venues, venues * mobiles, seed);
  wl.base.objects = kMixedObjects;
  wl.base.scene_raster = 32;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t m = 1; m <= kMixedObjects; ++m) {
    ids.push_back(m);
    w.models.emplace_back(m, KB(256) + m * KB(8));
  }
  trace::ClusterWorkloadGenerator gen(wl);
  w.trace = gen.GenerateMixed(ops, ids, kVideoId);
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(w.trace), rate_hz,
                        seed + 10);
}

std::size_t Scaled(std::size_t ops, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(ops) * scale)));
}

bool MakeWorkload(std::string_view name, std::uint64_t seed, double scale,
                  Workload& w) {
  w.name = std::string(name);
  if (name == "mixed_open" || name == "mixed_open_4w") {
    w.config = BaseConfig(8, 4);
    w.config.cache.capacity_bytes = MB(64);
    if (name == "mixed_open_4w") w.config.execution.workers = 4;
    MakeMixed(w, 8, 4, Scaled(12'000, scale), 1500, seed);
    return true;
  }
  if (name == "churn_closed") {
    // Render-only Zipf(0.7) over 200 models that do not fit a 4 MB edge
    // cache: every op writes or evicts, and peers serve what gossip
    // advertises.
    w.config = BaseConfig(16, 1);
    w.config.cache.capacity_bytes = MB(4);
    w.closed_loop = true;
    trace::ClusterWorkloadConfig wl = BaseTrace(16, 16, seed);
    wl.base.zipf_skew = 0.7;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t m = 1; m <= 200; ++m) {
      ids.push_back(m);
      w.models.emplace_back(m, KB(64) + m * KB(4));
    }
    trace::ClusterWorkloadGenerator gen(wl);
    w.trace = gen.GenerateRender(Scaled(8'000, scale), ids);
    return true;
  }
  if (name == "lossy_open") {
    w.config = BaseConfig(4, 4);
    w.config.cache.capacity_bytes = MB(64);
    w.config.delta_gossip = true;
    w.config.transport = federation::FederationTransportConfig::Lossy(0.01);
    MakeMixed(w, 4, 4, Scaled(3'000, scale), 400, seed);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Flat `"key": value` fields of one JSON object. Doubles print with 17
/// significant digits, so nothing measured is rounded away.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(std::string_view key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    return Raw(key, "\"" + std::string(v) + "\"");
  }
  JsonObject& Obj(std::string_view key, const JsonObject& v) {
    return Raw(key, v.Render());
  }
  [[nodiscard]] std::string Render() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(std::string_view key, const std::string& rendered) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + rendered;
    return *this;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Outcome analysis
// ---------------------------------------------------------------------------

/// Hash over the outcome stream as sorted (completed_at, venue, task,
/// source, error, latency_us) tuples — equal digests mean equal outcomes,
/// whatever order the engine returned them in.
std::string OutcomeDigest(const std::vector<FederationOutcome>& outcomes) {
  using Row = std::tuple<std::int64_t, std::uint32_t, int, int, int,
                         std::int64_t>;
  std::vector<Row> rows;
  rows.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    rows.emplace_back(o.completed_at.micros(), o.venue,
                      static_cast<int>(o.outcome.task),
                      static_cast<int>(o.outcome.source),
                      o.outcome.error ? 1 : 0, o.outcome.latency.micros());
  }
  std::sort(rows.begin(), rows.end());
  ByteWriter w;
  for (const Row& r : rows) {
    w.WriteI64(std::get<0>(r));
    w.WriteU32(std::get<1>(r));
    w.WriteU8(static_cast<std::uint8_t>(std::get<2>(r)));
    w.WriteU8(static_cast<std::uint8_t>(std::get<3>(r)));
    w.WriteU8(static_cast<std::uint8_t>(std::get<4>(r)));
    w.WriteI64(std::get<5>(r));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(Fnv1a64(w.bytes())));
  return hex;
}

JsonObject SimMetrics(const std::vector<FederationOutcome>& outcomes,
                      std::size_t issued) {
  core::QoeAggregator agg;
  std::uint64_t met = 0;
  for (const auto& o : outcomes) {
    agg.Add(o.outcome);
    if (!o.outcome.error && o.outcome.latency.millis() <= kDeadlineMs) ++met;
  }
  const auto successful = static_cast<std::uint64_t>(agg.latencies_ms().count());
  const double p99 = successful > 0 ? agg.PercentileLatencyMs(99) : 0;
  std::uint64_t beyond_p99 = 0;
  for (const auto& o : outcomes) {
    if (!o.outcome.error && o.outcome.latency.millis() > p99) ++beyond_p99;
  }
  const double n = static_cast<double>(std::max<std::size_t>(issued, 1));
  JsonObject sim;
  sim.Num("sim_mean_ms", successful > 0 ? agg.MeanLatencyMs() : 0)
      .Num("sim_p50_ms", successful > 0 ? agg.PercentileLatencyMs(50) : 0)
      .Num("sim_p99_ms", p99)
      .Num("hit_rate", agg.HitRate())
      .Num("success_rate", static_cast<double>(successful) / n)
      .Num("deadline_met_rate", static_cast<double>(met) / n)
      .Int("successful", successful)
      .Int("beyond_p99", beyond_p99);
  return sim;
}

/// Work done per layer, from the pipeline's own counters and accessors,
/// per issued operation.
JsonObject LayerCounters(FederationPipeline& p, const Workload& w,
                         const federation::OpenLoopStats& engine) {
  const double ops = static_cast<double>(std::max<std::size_t>(w.trace.size(), 1));
  const auto per_op = [ops](double v) { return v / ops; };

  std::uint64_t recognition = 0;
  for (const auto& r : w.trace) {
    if (r.record.type == trace::IcTaskType::kRecognition) ++recognition;
  }
  std::uint64_t hits = 0, misses = 0, inserts = 0, evictions = 0;
  double resident = 0;
  for (std::uint32_t v = 0; v < w.config.venues; ++v) {
    const cache::IcCache& c = p.edge(v).cache();
    hits += c.stats().hits;
    misses += c.stats().misses;
    inserts += c.stats().insertions;
    evictions += c.stats().evictions;
    resident += static_cast<double>(c.bytes_used());
  }
  const obs::MetricsSnapshot snap = p.MergedMetricsSnapshot();
  const auto counter = [&snap](const char* path) {
    return static_cast<double>(snap.value(path));
  };
  std::uint64_t worker_max = 0;
  for (const std::uint64_t e : engine.per_worker_events_fired) {
    worker_max = std::max(worker_max, e);
  }
  const double worker_mean =
      static_cast<double>(engine.events_fired) /
      static_cast<double>(std::max<std::size_t>(
          engine.per_worker_events_fired.size(), 1));
  const double probes = static_cast<double>(p.total_peer_probes());

  JsonObject c;
  // Each recognition op runs one SyntheticImage::Generate + Extract on the
  // client; the cloud classifies from the shipped descriptor.
  c.Num("vision.extract_per_op", per_op(static_cast<double>(recognition)))
      .Num("cache.lookups_per_op", per_op(static_cast<double>(hits + misses)))
      .Num("cache.local_hit_ratio",
           hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0)
      .Num("cache.inserts_per_op", per_op(static_cast<double>(inserts)))
      .Num("cache.evictions_per_op", per_op(static_cast<double>(evictions)))
      .Num("cache.resident_mb", resident / (1024.0 * 1024.0))
      .Num("netsim.events_per_op",
           per_op(static_cast<double>(engine.events_fired)))
      .Num("netsim.frames_lost_per_op",
           per_op(counter("net.links.frames_lost")))
      .Num("netsim.chunks_per_op", per_op(counter("net.datagram.chunks_sent")))
      .Num("netsim.partials_discarded_per_op",
           per_op(counter("net.datagram.partials_discarded")))
      .Num("netsim.sync_windows_per_op",
           per_op(static_cast<double>(engine.sync_windows)))
      .Num("netsim.cross_shard_msgs_per_op",
           per_op(static_cast<double>(engine.cross_shard_messages)))
      .Num("netsim.worker_imbalance",
           worker_mean > 0 ? static_cast<double>(worker_max) / worker_mean : 1)
      .Num("core.peer_probes_per_op", per_op(probes))
      .Num("core.peer_hit_ratio",
           probes > 0 ? static_cast<double>(p.total_peer_hits()) / probes : 0)
      .Num("core.coalesced_per_op",
           per_op(static_cast<double>(p.total_coalesced_requests())))
      .Num("core.client_retx_per_op",
           per_op(static_cast<double>(p.total_client_retransmissions())))
      .Num("core.cloud_retx_per_op",
           per_op(static_cast<double>(p.total_cloud_retransmissions())))
      .Num("core.leader_promotions_per_op",
           per_op(static_cast<double>(p.total_leader_promotions())))
      .Num("core.cloud_forwards_per_op",
           per_op(static_cast<double>(p.total_cloud_forwards())))
      .Num("core.max_inflight", engine.max_inflight)
      .Num("federation.gossip_frames_per_op",
           per_op(static_cast<double>(p.summary_updates_sent() +
                                      p.summary_deltas_sent() +
                                      p.region_digests_sent())))
      .Num("federation.gossip_kb_per_op",
           per_op(static_cast<double>(p.summary_bytes_full() +
                                      p.summary_bytes_delta() +
                                      p.region_digest_bytes()) /
                  1000.0))
      .Num("federation.relay_forwards_per_op",
           per_op(static_cast<double>(p.relay_forwards())))
      .Num("common.frame_copies_per_op", per_op(counter("frame.copies")));
  return c;
}

// ---------------------------------------------------------------------------
// Trace analysis (exact per-phase quantiles from completed spans)
// ---------------------------------------------------------------------------

JsonObject PhaseMetrics(const obs::RequestTracer& tracer,
                        const std::vector<FederationOutcome>& outcomes,
                        std::size_t issued, const core::CostModel& costs,
                        JsonObject& check) {
  Sample per_phase[obs::kPhaseCount];
  std::int64_t phase_us[obs::kPhaseCount] = {};
  std::int64_t span_us = 0;
  for (const obs::SpanEvent& s : tracer.CompletedSpans()) {
    const auto i = static_cast<std::size_t>(s.phase);
    const std::int64_t us = (s.end - s.begin).micros();
    per_phase[i].Add(static_cast<double>(us) / 1e3);
    phase_us[i] += us;
    span_us += us;
  }
  std::int64_t latency_us = 0;
  for (const auto& o : outcomes) latency_us += o.outcome.latency.micros();

  check.Int("spans_evicted", tracer.spans_evicted())
      .Int("spans_open", tracer.live_count())
      .Int("span_sum_us", static_cast<std::uint64_t>(span_us))
      .Int("latency_sum_us", static_cast<std::uint64_t>(latency_us))
      // The constant phases' true durations, for the exact-quantile check.
      .Num("edge_lookup_ms", costs.edge.cache_lookup.millis())
      .Num("cache_insert_ms", costs.edge.cache_insert.millis());

  const double ops = static_cast<double>(std::max<std::size_t>(issued, 1));
  JsonObject phases;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const std::string prefix =
        std::string("phase.") + obs::PhaseName(static_cast<obs::Phase>(p));
    const Sample& s = per_phase[p];
    phases.Num(prefix + ".p50_ms", s.empty() ? 0 : s.Percentile(50))
        .Num(prefix + ".p99_ms", s.empty() ? 0 : s.Percentile(99))
        .Num(prefix + ".spans_per_op", static_cast<double>(s.count()) / ops)
        .Num(prefix + ".share",
             latency_us > 0 ? static_cast<double>(phase_us[p]) /
                                  static_cast<double>(latency_us)
                            : 0);
  }
  return phases;
}

/// Samples the scheduler's pending-event count every `period` of
/// simulated time, re-arming only while other events remain, so the run
/// still drains. Sampling events never touch simulation state and do not
/// reorder other events (ties fire in scheduling order), so the outcome
/// stream is unchanged.
class DepthSampler {
 public:
  DepthSampler(netsim::EventScheduler& sched, Duration period)
      : sched_(sched), period_(period) {}
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  void Arm() {
    sched_.ScheduleAfter(period_, [this] {
      const std::size_t pending = sched_.pending();
      sum_ += static_cast<double>(pending);
      ++samples_;
      if (pending > 0) Arm();
    });
  }
  [[nodiscard]] double mean() const {
    return samples_ == 0 ? 0 : sum_ / static_cast<double>(samples_);
  }

 private:
  netsim::EventScheduler& sched_;
  Duration period_;
  double sum_ = 0;
  std::uint64_t samples_ = 0;
};

// ---------------------------------------------------------------------------
// Layer replay: wall time per call of each layer's public functions
// ---------------------------------------------------------------------------

/// Sink for replayed results, so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

struct Timer {
  double seconds = 0;
  std::uint64_t calls = 0;
  [[nodiscard]] double micros_per_call() const {
    return calls == 0 ? 0 : seconds * 1e6 / static_cast<double>(calls);
  }
};

/// Result-payload size of one record, as the edge caches it.
Bytes ResultBytes(const trace::TraceRecord& r, const Workload& w) {
  switch (r.type) {
    case trace::IcTaskType::kRecognition:
      return w.config.costs.recognition.annotation_bytes;
    case trace::IcTaskType::kRender:
      for (const auto& [id, size] : w.models) {
        if (id == r.model_id) return size;
      }
      return 0;
    case trace::IcTaskType::kPanorama:
      return w.config.costs.panorama.frame_bytes;
  }
  return 0;
}

/// Seconds to encode `req` as one request envelope and view-decode
/// `reply` as a `ReplyView` — one op's share of the wire codec.
template <typename ReplyView, typename Request>
double TimeCodec(proto::MessageType request_type, std::uint64_t id,
                 const Request& req, const Frame& reply,
                 proto::MessageType reply_type) {
  const auto start = Clock::now();
  const ByteVec encoded = proto::EncodeMessage(request_type, id, req);
  const auto env = proto::DecodeEnvelopeView(reply);
  const bool ok =
      env.ok() && proto::DecodePayloadAs<ReplyView>(env.value(), reply_type).ok();
  const double secs = SecondsSince(start);
  COIC_CHECK_MSG(ok, "codec replay: reply failed to decode");
  g_sink = g_sink + encoded.size();
  return secs;
}

/// Recognition scenes to replay extraction on. A workload without
/// recognition ops (churn_closed) replays 64 scenes drawn by the mixed
/// generator from the same seed, so the per-call cost stays a measured
/// time.
std::vector<vision::SceneParams> ReplayScenes(const Workload& w,
                                              std::uint64_t seed) {
  std::vector<vision::SceneParams> scenes;
  for (const auto& r : w.trace) {
    if (r.record.type == trace::IcTaskType::kRecognition) {
      scenes.push_back(r.record.scene);
    }
  }
  if (scenes.empty()) {
    Workload probe;
    MakeMixed(probe, 1, 1, 110, 1, seed);
    for (const auto& r : probe.trace) {
      if (r.record.type == trace::IcTaskType::kRecognition &&
          scenes.size() < 64) {
        scenes.push_back(r.record.scene);
      }
    }
  }
  return scenes;
}

JsonObject ReplayLayers(FederationPipeline& p, const Workload& w,
                        std::uint64_t seed, double pending_depth) {
  JsonObject out;

  // vision: SyntheticImage::Generate + FeatureExtractor::Extract per
  // recognition record; the vectors feed the cache and codec replays.
  const vision::FeatureExtractor extractor(w.config.extractor);
  std::vector<std::vector<float>> vectors;
  {
    Timer t;
    for (const vision::SceneParams& scene : ReplayScenes(w, seed)) {
      const auto start = Clock::now();
      std::vector<float> v =
          extractor.Extract(vision::SyntheticImage::Generate(scene));
      t.seconds += SecondsSince(start);
      ++t.calls;
      vectors.push_back(std::move(v));
    }
    out.Num("vision.extract_us", t.micros_per_call());
  }

  // render: LoadModel once per distinct (client, model), as the client's
  // install memo calls it; Panorama::Generate once per distinct frame.
  {
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> loads;
    std::set<std::pair<std::uint64_t, std::uint32_t>> frames;
    for (const auto& r : w.trace) {
      const std::uint32_t mobile = r.record.user_id % w.config.mobiles_per_venue;
      if (r.record.type == trace::IcTaskType::kRender) {
        loads.emplace(r.venue, mobile, r.record.model_id);
      } else if (r.record.type == trace::IcTaskType::kPanorama) {
        frames.emplace(r.record.video_id, r.record.frame_index);
      }
    }
    if (frames.empty()) {
      for (std::uint32_t f = 0; f < 8; ++f) frames.emplace(kVideoId, f);
    }
    Timer load;
    for (const auto& [venue, mobile, model] : loads) {
      const auto bytes = p.cloud().model_registry().BytesFor(model);
      COIC_CHECK(bytes.ok());
      const auto start = Clock::now();
      const auto loaded = render::LoadModel(bytes.value());
      load.seconds += SecondsSince(start);
      ++load.calls;
      g_sink = g_sink + (loaded.ok() ? loaded.value().index_count : 0);
    }
    Timer pano;
    for (const auto& [video, frame] : frames) {
      const auto start = Clock::now();
      const render::Panorama pn = render::Panorama::Generate(video, frame);
      pano.seconds += SecondsSince(start);
      ++pano.calls;
      g_sink = g_sink + pn.width();
    }
    out.Num("render.model_load_us", load.micros_per_call())
        .Num("render.panorama_gen_us", pano.micros_per_call());
  }

  // Descriptors in trace order (recognition vectors cycle when the
  // workload had none of its own — only the codec replay uses them then).
  std::vector<proto::FeatureDescriptor> keys;
  keys.reserve(w.trace.size());
  std::size_t next_vector = 0;
  for (const auto& r : w.trace) {
    switch (r.record.type) {
      case trace::IcTaskType::kRecognition:
        keys.push_back(proto::FeatureDescriptor::ForVector(
            proto::TaskKind::kRecognition,
            vectors[next_vector++ % vectors.size()]));
        break;
      case trace::IcTaskType::kRender: {
        const auto digest =
            p.cloud().model_registry().DigestFor(r.record.model_id);
        COIC_CHECK(digest.ok());
        keys.push_back(proto::FeatureDescriptor::ForHash(
            proto::TaskKind::kRender, digest.value()));
        break;
      }
      case trace::IcTaskType::kPanorama:
        keys.push_back(proto::FeatureDescriptor::ForHash(
            proto::TaskKind::kPanorama,
            core::CoicClient::PanoramaIdentityDigest(r.record.video_id,
                                                     r.record.frame_index)));
        break;
    }
  }

  // cache: the descriptors in trace order against a fresh IcCache per
  // venue; a miss inserts a shared payload of the result's size.
  {
    std::map<Bytes, Frame> payloads;
    for (const auto& r : w.trace) {
      const Bytes size = ResultBytes(r.record, w);
      if (!payloads.contains(size)) {
        payloads.emplace(size, Frame(ByteVec(size, 0x5A)));
      }
    }
    std::vector<std::unique_ptr<cache::IcCache>> caches;
    for (std::uint32_t v = 0; v < w.config.venues; ++v) {
      caches.push_back(std::make_unique<cache::IcCache>(w.config.cache));
    }
    Timer lookup, insert;
    for (std::size_t i = 0; i < w.trace.size(); ++i) {
      const auto& r = w.trace[i];
      cache::IcCache& c = *caches[r.venue];
      const SimTime now = r.record.at;
      auto start = Clock::now();
      const cache::LookupOutcome hit = c.Lookup(keys[i], now);
      lookup.seconds += SecondsSince(start);
      ++lookup.calls;
      if (hit.hit) continue;
      const Frame& payload = payloads.at(ResultBytes(r.record, w));
      start = Clock::now();
      g_sink = g_sink + c.Insert(keys[i], payload, now);
      insert.seconds += SecondsSince(start);
      ++insert.calls;
    }
    out.Num("cache.lookup_us", lookup.micros_per_call())
        .Num("cache.insert_us", insert.micros_per_call());
  }

  // proto: encode each op's request envelope and view-decode a reply of
  // that op's result size.
  {
    std::map<std::pair<int, Bytes>, Frame> replies;
    const auto reply_for = [&](const trace::TraceRecord& r) -> const Frame& {
      const Bytes size = ResultBytes(r, w);
      const auto key = std::make_pair(static_cast<int>(r.type), size);
      auto it = replies.find(key);
      if (it != replies.end()) return it->second;
      ByteVec encoded;
      switch (r.type) {
        case trace::IcTaskType::kRecognition: {
          proto::RecognitionResult res;
          res.label = "object_1";
          res.annotation.assign(size, 0x11);
          encoded = proto::EncodeMessage(proto::MessageType::kRecognitionResult,
                                         1, res);
          break;
        }
        case trace::IcTaskType::kRender: {
          proto::RenderResult res;
          res.model_id = r.model_id;
          res.model_bytes.assign(size, 0x22);
          encoded =
              proto::EncodeMessage(proto::MessageType::kRenderResult, 1, res);
          break;
        }
        case trace::IcTaskType::kPanorama: {
          proto::PanoramaResult res;
          res.video_id = r.video_id;
          res.frame_index = r.frame_index;
          res.frame.assign(size, 0x33);
          encoded =
              proto::EncodeMessage(proto::MessageType::kPanoramaResult, 1, res);
          break;
        }
      }
      return replies.emplace(key, Frame(std::move(encoded))).first->second;
    };
    for (const auto& r : w.trace) reply_for(r.record);

    Timer codec;
    for (std::size_t i = 0; i < w.trace.size(); ++i) {
      const trace::TraceRecord& r = w.trace[i].record;
      const Frame& reply = reply_for(r);
      const std::uint64_t id = i + 1;
      switch (r.type) {
        case trace::IcTaskType::kRecognition: {
          proto::RecognitionRequest req;
          req.user_id = r.user_id;
          req.frame_id = id;
          req.descriptor = keys[i];
          codec.seconds += TimeCodec<proto::RecognitionResultView>(
              proto::MessageType::kRecognitionRequest, id, req, reply,
              proto::MessageType::kRecognitionResult);
          break;
        }
        case trace::IcTaskType::kRender: {
          proto::RenderRequest req;
          req.user_id = r.user_id;
          req.model_id = r.model_id;
          req.descriptor = keys[i];
          codec.seconds += TimeCodec<proto::RenderResultView>(
              proto::MessageType::kRenderRequest, id, req, reply,
              proto::MessageType::kRenderResult);
          break;
        }
        case trace::IcTaskType::kPanorama: {
          proto::PanoramaRequest req;
          req.user_id = r.user_id;
          req.video_id = r.video_id;
          req.frame_index = r.frame_index;
          req.descriptor = keys[i];
          codec.seconds += TimeCodec<proto::PanoramaResultView>(
              proto::MessageType::kPanoramaRequest, id, req, reply,
              proto::MessageType::kPanoramaResult);
          break;
        }
      }
      ++codec.calls;
    }
    out.Num("proto.codec_us_per_op", codec.micros_per_call());
  }

  // netsim: ScheduleAt + Step at the run's mean pending depth. Actions
  // capture 32 bytes, past std::function's small buffer, as the
  // pipeline's own closures do.
  {
    const auto depth = static_cast<std::size_t>(
        std::max<double>(1, std::llround(pending_depth)));
    constexpr std::size_t kIterations = 200'000;
    Rng rng(seed);
    std::vector<std::int64_t> delays(depth + kIterations);
    for (auto& d : delays) {
      d = 1 + static_cast<std::int64_t>(rng.NextBelow(100'000));
    }
    struct Capture {
      std::uint64_t a, b, c;
      std::uint64_t* sink;
    };
    std::uint64_t fired = 0;
    netsim::EventScheduler sched;
    for (std::size_t i = 0; i < depth; ++i) {
      const Capture cap{i, 0, 0, &fired};
      sched.ScheduleAfter(Duration::Micros(delays[i]),
                          [cap] { *cap.sink += cap.a | 1; });
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kIterations; ++i) {
      const Capture cap{i, 0, 0, &fired};
      sched.ScheduleAfter(Duration::Micros(delays[depth + i]),
                          [cap] { *cap.sink += cap.a | 1; });
      sched.Step();
    }
    const double secs = SecondsSince(start);
    g_sink = g_sink + fired;
    out.Num("netsim.event_ns", secs * 1e9 / kIterations)
        .Num("netsim.pending_depth", pending_depth);
  }

  // federation: CacheSummary::Build over each edge's final cache.
  {
    constexpr int kRounds = 20;
    Timer build;
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint32_t v = 0; v < w.config.venues; ++v) {
        const auto start = Clock::now();
        const federation::CacheSummary s = federation::CacheSummary::Build(
            v, static_cast<std::uint64_t>(round) + 1, p.edge(v).cache(),
            w.config.bloom);
        build.seconds += SecondsSince(start);
        ++build.calls;
        g_sink = g_sink + s.bloom().inserted();
      }
    }
    out.Num("federation.summary_build_us", build.micros_per_call());
  }
  return out;
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double scale = 1.0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && has_value) {
      o.scale = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.scale > 0 && o.scale <= 1;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  Options opt;
  if (!ParseOptions(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: coic_bench --workload NAME [--seed S] [--scale F] "
                 "[--trace]\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(opt.workload, opt.seed, opt.scale, w)) {
    std::fprintf(stderr, "coic_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.trace) {
    w.config.execution.workers = 1;
    w.config.trace.enabled = true;
    // Keep every span in the ring: the exact quantiles read them all.
    w.config.trace.span_capacity = std::max<std::size_t>(16 * w.trace.size(), 1024);
  }

  const auto setup_start = Clock::now();
  auto pipeline = std::make_unique<FederationPipeline>(w.config);
  const auto register_start = Clock::now();
  for (const auto& [id, size] : w.models) pipeline->RegisterModel(id, size);
  const double register_s = SecondsSince(register_start);
  for (const auto& r : w.trace) pipeline->EnqueuePlaced(r);
  const double setup_s = SecondsSince(setup_start);

  DepthSampler sampler(pipeline->scheduler(), Duration::Millis(10));
  if (opt.trace) sampler.Arm();

  const std::uint64_t fired_before = pipeline->scheduler().total_fired();
  const auto run_start = Clock::now();
  const std::vector<FederationOutcome> outcomes =
      w.closed_loop ? pipeline->Run() : pipeline->RunOpenLoop();
  const double run_s = SecondsSince(run_start);

  // The closed loop keeps one request in flight on one engine.
  federation::OpenLoopStats engine;
  if (w.closed_loop) {
    engine.events_fired = pipeline->scheduler().total_fired() - fired_before;
    engine.per_worker_events_fired = {engine.events_fired};
    engine.max_inflight = 1;
  } else {
    engine = pipeline->open_loop_stats();
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::size_t issued = w.trace.size();

  JsonObject line;
  line.Str("workload", w.name)
      .Int("issued", issued)
      .Int("drained", outcomes.size())
      .Str("digest", OutcomeDigest(outcomes))
      .Num("setup_s", setup_s)
      .Num("ns_per_op", run_s * 1e9 / static_cast<double>(std::max<std::size_t>(issued, 1)))
      .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Num("register_model_ms",
           w.models.empty() ? 0
                            : register_s * 1e3 /
                                  static_cast<double>(w.models.size()))
      .Obj("sim", SimMetrics(outcomes, issued))
      .Obj("counters", LayerCounters(*pipeline, w, engine));
  if (opt.trace) {
    JsonObject check;
    const JsonObject phases =
        PhaseMetrics(*pipeline->tracer(), outcomes, issued, w.config.costs, check);
    line.Obj("phases", phases)
        .Obj("trace_check", check)
        .Obj("replay", ReplayLayers(*pipeline, w, opt.seed, sampler.mean()));
  }
  std::printf("%s\n", line.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace coic

int main(int argc, char** argv) { return coic::Main(argc, argv); }
