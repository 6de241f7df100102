#include "core/metrics.h"

namespace coic::core {

void QoeAggregator::Add(const RequestOutcome& outcome) {
  ++count_;
  if (outcome.error) {
    ++errors_;
    return;
  }
  latency_ms_.Add(outcome.latency.millis());
  latency_by_source_[SourceIndex(outcome.source)].Add(outcome.latency.millis());
  switch (outcome.source) {
    case proto::ResultSource::kEdgeCache:
      ++edge_hits_;
      break;
    case proto::ResultSource::kCloud:
      ++cloud_served_;
      break;
    case proto::ResultSource::kPeerEdge:
      ++peer_hits_;
      break;
    case proto::ResultSource::kLocal:
      break;
  }
  if (outcome.task == proto::TaskKind::kRecognition) {
    ++recognition_total_;
    if (outcome.correct) ++recognition_correct_;
  }
}

double QoeAggregator::HitRate() const noexcept {
  const auto served = edge_hits_ + peer_hits_ + cloud_served_;
  return served == 0 ? 0
                     : static_cast<double>(edge_hits_ + peer_hits_) /
                           static_cast<double>(served);
}

double QoeAggregator::Accuracy() const noexcept {
  return recognition_total_ == 0
             ? 0
             : static_cast<double>(recognition_correct_) /
                   static_cast<double>(recognition_total_);
}

double QoeAggregator::ReductionPercentVs(const QoeAggregator& baseline) const {
  const double base = baseline.MeanLatencyMs();
  if (base <= 0) return 0;
  return (1.0 - MeanLatencyMs() / base) * 100.0;
}

namespace {

void AppendSampleJson(std::string& out, const Sample& sample) {
  out += "{\"count\": " + std::to_string(sample.count());
  out += ", \"mean_ms\": " + std::to_string(sample.mean());
  if (!sample.empty()) {
    out += ", \"p50_ms\": " + std::to_string(sample.Percentile(50));
    out += ", \"p95_ms\": " + std::to_string(sample.Percentile(95));
    out += ", \"p99_ms\": " + std::to_string(sample.Percentile(99));
  }
  out += '}';
}

const char* SourceName(proto::ResultSource source) noexcept {
  switch (source) {
    case proto::ResultSource::kEdgeCache:
      return "edge_cache";
    case proto::ResultSource::kCloud:
      return "cloud";
    case proto::ResultSource::kLocal:
      return "local";
    case proto::ResultSource::kPeerEdge:
      return "peer_edge";
  }
  return "unknown";
}

}  // namespace

std::string QoeAggregator::DumpJson() const {
  std::string out = "{\"count\": " + std::to_string(count_);
  out += ", \"errors\": " + std::to_string(errors_);
  out += ", \"hit_rate\": " + std::to_string(HitRate());
  out += ", \"accuracy\": " + std::to_string(Accuracy());
  out += ", \"latency_ms\": ";
  AppendSampleJson(out, latency_ms_);
  out += ", \"by_source\": {";
  bool first = true;
  for (const auto source :
       {proto::ResultSource::kEdgeCache, proto::ResultSource::kCloud,
        proto::ResultSource::kLocal, proto::ResultSource::kPeerEdge}) {
    const Sample& sample = latency_by_source_[SourceIndex(source)];
    if (sample.empty()) continue;
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + SourceName(source) + "\": ";
    AppendSampleJson(out, sample);
  }
  out += "}}";
  return out;
}

}  // namespace coic::core
