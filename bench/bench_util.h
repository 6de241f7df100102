// Shared helpers for the figure-reproduction benches.
//
// Each bench binary prints the paper-style table first (the actual
// reproduction artifact) and then runs google-benchmark microbenchmarks
// of the same code paths (engine throughput).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "federation/federation_pipeline.h"

namespace coic::bench {

/// True when argv contains `--quick`. Quick mode prints the paper-style
/// tables but skips the google-benchmark loop, so every bench binary
/// doubles as a fast CTest smoke test (label: bench-smoke) and the
/// reproduction code path can never silently rot.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// Prints a separator + title for a reproduced figure/table.
inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Version of the BENCH_*.json row schema. Bump when a breaking change
/// is made to the automatic columns (wall_ms, events_per_sec,
/// schema_version itself) or their semantics, so cross-PR trajectory
/// tooling can key on it instead of sniffing columns. History:
///   1 — wall_ms per row, optional events_per_sec, schema_version stamp.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// Machine-readable companion to the printed tables: every bench emits a
/// `BENCH_<name>.json` file in the working directory (the build dir when
/// run under CTest) so the perf trajectory can be tracked across PRs and
/// uploaded as a CI artifact. Rows mirror the human table one-to-one.
///
///   BenchJson json("fig2a_recognition");
///   json.AddRow().Set("condition", "90/9").Set("origin_ms", 2381.5);
///   ...
///   json.Write();  // also invoked by the destructor as a backstop
///
/// Every row automatically carries a `wall_ms` column — the wall-clock
/// time elapsed since the previous AddRow (i.e. the cost of producing
/// that row) — and a `schema_version` stamp (enforced by
/// tools/check_bench_json.py). Rows that ran a simulation add their
/// engine cost via SetEvents / SetRunCost: `ns_per_op` (the headline
/// engine metric) next to `events_per_sec`.
class BenchJson {
 public:
  class Row {
   public:
    Row& Set(std::string_view key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g", value);
      return Raw(key, buf);
    }
    Row& Set(std::string_view key, std::uint64_t value) {
      return Raw(key, std::to_string(value));
    }
    Row& Set(std::string_view key, std::int64_t value) {
      return Raw(key, std::to_string(value));
    }
    Row& Set(std::string_view key, int value) {
      return Set(key, static_cast<std::int64_t>(value));
    }
    Row& Set(std::string_view key, std::string_view value) {
      return Raw(key, '"' + Escaped(value) + '"');
    }
    Row& Set(std::string_view key, const char* value) {
      return Set(key, std::string_view(value));
    }
    /// Engine cost of the run behind this row: `fired` scheduler events
    /// and `ops` operations in `wall_secs`, emitted as `events_per_sec`
    /// and `ns_per_op` side by side. Events are not a unit of work (a
    /// delta-gossip run skips most of the gossip events a full-gossip run
    /// fires for the same operations), so ns_per_op is the column to
    /// compare across configurations.
    Row& SetRunCost(std::uint64_t fired, std::uint64_t ops, double wall_secs) {
      Set("events_per_sec",
          wall_secs > 0 ? static_cast<double>(fired) / wall_secs : 0.0);
      return Set("ns_per_op",
                 ops > 0 ? wall_secs * 1e9 / static_cast<double>(ops) : 0.0);
    }
    /// SetRunCost against the row's own wall time (the time since the
    /// previous AddRow).
    Row& SetEvents(std::uint64_t fired, std::uint64_t ops) {
      return SetRunCost(fired, ops, elapsed_secs_);
    }

   private:
    friend class BenchJson;
    Row& Raw(std::string_view key, std::string rendered) {
      fields_.emplace_back('"' + Escaped(key) + '"', std::move(rendered));
      return *this;
    }
    static std::string Escaped(std::string_view s) {
      std::string out;
      out.reserve(s.size());
      for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (c == '\n') {
          out += "\\n";
          continue;
        }
        out.push_back(c);
      }
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
    double elapsed_secs_ = 0;
  };

  explicit BenchJson(std::string name)
      : name_(std::move(name)), last_row_at_(std::chrono::steady_clock::now()) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { Write(); }

  Row& AddRow() {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - last_row_at_).count();
    last_row_at_ = now;
    rows_.emplace_back();
    Row& row = rows_.back();
    row.elapsed_secs_ = elapsed;
    row.Set("schema_version", kBenchJsonSchemaVersion);
    row.Set("wall_ms", elapsed * 1e3);
    return row;
  }

  /// Writes BENCH_<name>.json; idempotent (later calls rewrite the file
  /// with any rows added since).
  void Write() {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [", name_.c_str());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
      const auto& fields = rows_[r].fields_;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        std::fprintf(f, "%s%s: %s", i == 0 ? "" : ", ",
                     fields[i].first.c_str(), fields[i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
  std::chrono::steady_clock::time_point last_row_at_;
};

/// Measures CoIC recognition at one network condition: returns
/// {miss_ms, hit_ms} means, using `repeats` perturbed re-requests of the
/// same object for the hit series.
struct HitMissLatency {
  double miss_ms = 0;
  double hit_ms = 0;
};

inline HitMissLatency MeasureRecognitionCoic(const core::NetworkCondition& cond,
                                             int repeats = 5,
                                             std::uint64_t scene_id = 3) {
  auto config = federation::FederationPipelineConfig::SingleVenue();
  config.client_mode = proto::OffloadMode::kCoic;
  config.network = cond;
  federation::FederationPipeline pipeline(config);

  pipeline.EnqueueRecognitionAt(0, {.scene_id = scene_id});
  HitMissLatency result;
  result.miss_ms = pipeline.Run()[0].outcome.latency.millis();

  core::QoeAggregator hits;
  for (int i = 1; i <= repeats; ++i) {
    pipeline.EnqueueRecognitionAt(
        0, {.scene_id = scene_id,
            .view_angle_deg = static_cast<double>(i - 3)});
  }
  for (const auto& o : pipeline.Run()) hits.Add(o.outcome);
  result.hit_ms = hits.MeanLatencyMs();
  return result;
}

/// Mean Origin-mode recognition latency at one condition.
inline double MeasureRecognitionOrigin(const core::NetworkCondition& cond,
                                       int repeats = 3,
                                       std::uint64_t scene_id = 3) {
  auto config = federation::FederationPipelineConfig::SingleVenue();
  config.client_mode = proto::OffloadMode::kOrigin;
  config.network = cond;
  federation::FederationPipeline pipeline(config);
  for (int i = 0; i < repeats; ++i) {
    pipeline.EnqueueRecognitionAt(0, {.scene_id = scene_id});
  }
  core::QoeAggregator agg;
  for (const auto& o : pipeline.Run()) agg.Add(o.outcome);
  return agg.MeanLatencyMs();
}

}  // namespace coic::bench
