// Cache-content summaries — the directory service of edge federation.
//
// Broadcasting a PeerLookupRequest to every venue scales probe traffic
// as O(N) per miss. Instead each edge periodically gossips a compact
// CacheSummary of what it holds:
//
//   * content-hash descriptors (render / panorama results) go into a
//     Bloom filter over FeatureDescriptor::IndexKey() — no false
//     negatives, so "not in the filter" is a safe reason to skip a peer;
//   * feature-vector descriptors (recognition results) are sketched per
//     task as an entry count plus the mean descriptor vector, so a
//     querier can rank peers by centroid proximity.
//
// A SummaryTable holds the freshest summary per peer; the peer-select
// policies consult it to direct probes. Staleness is bounded by the
// gossip period: content cached since the last update is simply not yet
// advertised (a missed peer-hit opportunity, never a wrong answer).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cache/ic_cache.h"
#include "common/bytes.h"
#include "proto/descriptor.h"
#include "proto/messages.h"

namespace coic::federation {

struct BloomFilterConfig {
  /// Bit-array size; rounded up to a whole byte. 8192 bits ≈ 1 KiB on the
  /// wire and holds ~570 keys at a 1% false-positive rate with 4 hashes.
  std::uint32_t bits = 8192;
  std::uint32_t hashes = 4;
};

/// Plain Bloom filter with double hashing (Kirsch–Mitzenmacher): probe i
/// lands at (h1 + i*h2) mod bits.
class BloomFilter {
 public:
  explicit BloomFilter(BloomFilterConfig config);
  /// Reconstructs a filter received on the wire.
  BloomFilter(std::uint32_t hashes, ByteVec bits, std::uint64_t inserted);

  void Insert(std::uint64_t key);
  [[nodiscard]] bool MayContain(std::uint64_t key) const;
  void Clear();

  /// Keys inserted so far (n in the false-positive formula).
  [[nodiscard]] std::uint64_t inserted() const noexcept { return inserted_; }
  [[nodiscard]] std::uint32_t bit_count() const noexcept {
    return static_cast<std::uint32_t>(bits_.size() * 8);
  }
  [[nodiscard]] std::uint32_t hashes() const noexcept { return hashes_; }
  [[nodiscard]] const ByteVec& bits() const noexcept { return bits_; }

  /// Expected false-positive rate at the current load:
  /// (1 - e^(-k*n/m))^k.
  [[nodiscard]] double EstimatedFpRate() const noexcept;

  /// Bitwise-OR of `other` into this filter — Bloom insertion composes
  /// under union, so the result answers MayContain for every key either
  /// filter held (plus their combined false positives). Returns false
  /// without mutating when the geometries (bit size or hash count)
  /// differ. `inserted` becomes the sum, an upper bound on distinct keys.
  bool UnionWith(const BloomFilter& other);

 private:
  std::uint32_t hashes_ = 4;
  std::uint64_t inserted_ = 0;
  ByteVec bits_;  ///< LSB-first within each byte.
};

/// Coarse sketch of one task family's vector-keyed entries.
struct CentroidSketch {
  std::uint32_t count = 0;
  std::vector<float> centroid;  ///< Mean descriptor; empty when count == 0.
};

/// One edge's advertised cache digest.
class CacheSummary {
 public:
  /// An empty summary (matches nothing).
  CacheSummary() : bloom_(BloomFilterConfig{}) {}

  /// Digests the current content of `cache`.
  static CacheSummary Build(std::uint32_t edge_id, std::uint64_t version,
                            const cache::IcCache& cache,
                            const BloomFilterConfig& bloom_config);

  /// How strongly this summary suggests the owning edge can serve `key`:
  /// 0 = definitely not / unknown; content-hash keys return 1 on a Bloom
  /// match; vector keys return 1/(1 + L2(key, centroid)) when the task
  /// has entries. Policies rank peers by this score.
  [[nodiscard]] double MatchScore(const proto::FeatureDescriptor& key) const;

  [[nodiscard]] proto::SummaryUpdate ToWire() const;
  static Result<CacheSummary> FromWire(const proto::SummaryUpdate& wire);

  /// Incremental form: the delta that takes a receiver holding
  /// `base_version` of this edge's summary to this summary's version.
  /// `keys_inserted` is the journal slice of content-hash IndexKeys
  /// inserted in between (caller guarantees no erasures in the interval —
  /// Bloom bits only compose under insertion); centroid sketches ride
  /// along whole.
  [[nodiscard]] proto::SummaryDeltaUpdate ToWireDelta(
      std::uint64_t base_version,
      std::vector<std::uint64_t> keys_inserted) const;

  /// Applies a delta in place. Validates before mutating: the delta must
  /// name this edge, extend exactly this summary's version, and its
  /// absolute key count must equal ours plus the inserted list — the
  /// insert-only composition invariant that makes the result
  /// byte-identical to the sender's freshly built summary.
  Status ApplyDelta(const proto::SummaryDeltaUpdate& wire);

  [[nodiscard]] std::uint32_t edge_id() const noexcept { return edge_id_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const BloomFilter& bloom() const noexcept { return bloom_; }
  [[nodiscard]] const CentroidSketch& sketch(proto::TaskKind task) const {
    return sketches_[static_cast<std::size_t>(task)];
  }

 private:
  std::uint32_t edge_id_ = 0;
  std::uint64_t version_ = 0;
  BloomFilter bloom_;
  std::array<CentroidSketch, 3> sketches_;
};

/// A region head's aggregate of its members' CacheSummaries — the unit
/// of cross-region gossip in two-tier federation. The Bloom union keeps
/// the no-false-negative property ("not in the digest" safely skips the
/// whole region); centroid sketches merge as weighted means; the member
/// hint (edge id + advertised key count per merged member) lets foreign
/// venues weight probe routing without holding per-member summaries.
class RegionDigest {
 public:
  RegionDigest() : bloom_(BloomFilterConfig{}) {}

  /// Unions `members` (the head passes its own summary plus every member
  /// summary it holds) into one digest. Members whose Bloom geometry
  /// disagrees with `bloom_config` are skipped — the cluster shares one
  /// config, so a mismatch means a stale or foreign frame.
  static RegionDigest Build(std::uint32_t region_id, std::uint32_t head_edge,
                            std::uint64_t version,
                            std::span<const CacheSummary* const> members,
                            const BloomFilterConfig& bloom_config);

  /// Same scale as CacheSummary::MatchScore, against the region union.
  [[nodiscard]] double MatchScore(const proto::FeatureDescriptor& key) const;

  [[nodiscard]] proto::RegionDigestUpdate ToWire() const;
  static Result<RegionDigest> FromWire(const proto::RegionDigestUpdate& wire);

  [[nodiscard]] std::uint32_t region_id() const noexcept { return region_id_; }
  [[nodiscard]] std::uint32_t head_edge() const noexcept { return head_edge_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const BloomFilter& bloom() const noexcept { return bloom_; }
  [[nodiscard]] const std::vector<std::uint32_t>& member_edges() const noexcept {
    return member_edges_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& member_keys() const noexcept {
    return member_keys_;
  }

 private:
  std::uint32_t region_id_ = 0;
  std::uint32_t head_edge_ = 0;
  std::uint64_t version_ = 0;
  BloomFilter bloom_;
  std::array<CentroidSketch, 3> sketches_;
  std::vector<std::uint32_t> member_edges_;
  std::vector<std::uint64_t> member_keys_;
};

/// Freshest digest per region with the head-succession acceptance rule.
/// `head_rank` is the sending head's succession rank (RegionMap::rank_of):
/// a digest from the head already on file needs a higher version; a
/// digest from a *lower-ranked* head wins immediately (the original head
/// recovered and reasserted); a higher-ranked head (a promoted
/// successor) must beat the held version — which it does by resuming at
/// last-seen + 1, since heads gossip digests to their own members too.
class RegionDigestTable {
 public:
  explicit RegionDigestTable(std::uint32_t regions = 0)
      : slots_(regions) {}

  /// Installs per the acceptance rule above; returns true if installed.
  bool Update(RegionDigest digest, std::uint32_t head_rank);

  /// Latest digest for `region`, or nullptr if none accepted yet.
  [[nodiscard]] const RegionDigest* For(std::uint32_t region) const;

  void Erase(std::uint32_t region) {
    if (region < slots_.size()) slots_[region].reset();
  }

  [[nodiscard]] std::uint32_t regions() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }

 private:
  struct Slot {
    RegionDigest digest;
    std::uint32_t head_rank = 0;
  };
  std::vector<std::optional<Slot>> slots_;
};

/// Freshest summary per peer edge, keyed by cluster index — the receive
/// side of gossip. Held summaries carry their version, the base a delta
/// must extend.
class SummaryTable {
 public:
  explicit SummaryTable(std::uint32_t cluster_size)
      : summaries_(cluster_size) {}

  /// Installs `summary` unless a newer version is already present.
  /// Returns true if installed.
  bool Update(CacheSummary summary);

  /// Applies an incremental update to the stored summary for its edge.
  /// Fails (leaving the table untouched) when no summary is held for
  /// that edge or the held version is not exactly the delta's base —
  /// the caller drops the frame and waits for a full resend.
  Status ApplyDelta(const proto::SummaryDeltaUpdate& wire);

  /// Latest summary for `edge`, or nullptr if none received yet.
  [[nodiscard]] const CacheSummary* For(std::uint32_t edge) const;

  /// Forgets the held summary for `edge` (no-op if none). Used to age
  /// out summaries from peers that have gone silent — a crashed edge's
  /// stale advertisement would otherwise direct probes at a dead venue
  /// forever. The next frame from that edge must be a full summary
  /// (deltas have no base to extend).
  void Erase(std::uint32_t edge) {
    if (edge < summaries_.size()) summaries_[edge].reset();
  }

  [[nodiscard]] std::uint32_t cluster_size() const noexcept {
    return static_cast<std::uint32_t>(summaries_.size());
  }

 private:
  std::vector<std::optional<CacheSummary>> summaries_;
};

}  // namespace coic::federation
