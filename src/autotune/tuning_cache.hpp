// Persistent measurement cache for the autotuning subsystem (CSTFTUNE files).
//
// A TuningKey identifies one tuning problem: the device the roofline model
// targets (digest of every DeviceSpec field), the tensor fingerprint (order,
// mode lengths, nonzero count, layout tag), the factorization rank, and a
// digest of the options that change which candidate configurations are legal
// (determinism, the privatization budget, the trial protocol itself).
// A TuningRecord is the decision the micro-trials produced for that key plus
// the evidence behind it — the measured (host wall) and modeled (roofline)
// seconds of both the winning configuration and the cost model's own pick —
// and a provenance stamp, so a later reader can audit *why* the cached
// configuration won.
//
// The cache is a small LRU map persisted with the same discipline as every
// other binary format in this repository (common/binio.hpp): magic
// "CSTFTUNE", a u32 format version, the records from least- to most-recently
// used, and a trailing FNV-1a checksum; writes are crash-consistent
// (tmp + rename). Loads are fully validated and raise typed ModelIoError
// (kBadMagic / kBadVersion / kTruncated / kCorruptHeader /
// kChecksumMismatch); `load_or_empty` turns any defect into an empty cache —
// a version bump or a corrupted file invalidates, never crashes, a tuned
// run. A device-spec change invalidates by construction: the device digest
// is part of every key, so records tuned for another machine simply miss.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device_spec.hpp"
#include "tensor/coo.hpp"

namespace cstf::autotune {

/// v2 dropped the retired MTTKRP engine choice and its chain budget from
/// the record.
inline constexpr std::uint32_t kTuningCacheFormatVersion = 2;
inline constexpr std::size_t kDefaultTuningCacheCapacity = 64;

/// Identity of one tuning problem. Two runs that agree on all four digests
/// may share a cached decision; anything that changes the workload, the
/// machine, or the candidate set changes the key.
struct TuningKey {
  std::uint64_t device_digest = 0;   ///< digest_device_spec()
  std::uint64_t tensor_digest = 0;   ///< digest_tensor_fingerprint()
  std::uint64_t rank = 0;
  std::uint64_t options_digest = 0;  ///< candidate-set + trial-protocol digest

  friend bool operator==(const TuningKey& a, const TuningKey& b) {
    return a.device_digest == b.device_digest &&
           a.tensor_digest == b.tensor_digest && a.rank == b.rank &&
           a.options_digest == b.options_digest;
  }
};

/// One cached tuning decision plus its evidence and provenance.
struct TuningRecord {
  /// Concrete scatter strategy per tensor mode (never kAuto). Empty for
  /// records that tune something other than the training loop (the serve
  /// batcher records fill only the batcher fields below).
  std::vector<ScatterStrategy> scatter_per_mode;

  /// Tuned dynamic-chunking oversubscription (parallel_chunks_per_worker);
  /// 0 = untuned, keep the default.
  std::uint32_t chunks_per_worker = 0;

  /// Tuned serve-batcher knobs (cstf_serve --tune); 0 = untuned.
  double batcher_linger_s = 0.0;
  std::uint32_t batcher_max_batch = 0;
  double batcher_arrival_rate_rps = 0.0;  ///< measured rate behind the pick

  // Evidence: per-AO-iteration MTTKRP seconds of the chosen configuration
  // and of the configuration the cost model alone would have picked, on both
  // clocks. chosen == model pick is common and healthy (the model was right).
  double measured_best_s = 0.0;   ///< host wall, winning config
  double measured_model_s = 0.0;  ///< host wall, model-picked config
  double modeled_best_s = 0.0;    ///< roofline, winning config
  double modeled_model_s = 0.0;   ///< roofline, model-picked config

  // Provenance: enough to reproduce the trial.
  std::uint64_t seed = 0;         ///< trial-protocol seed
  std::uint32_t best_of = 0;      ///< timed repeats per candidate
  std::uint64_t sample_nnz = 0;   ///< deterministic nnz sample size
  std::string provenance;         ///< human-readable stamp
};

/// Digest of every DeviceSpec field (name included): the cache must not
/// serve an A100-tuned decision to an H100 run.
std::uint64_t digest_device_spec(const simgpu::DeviceSpec& spec);

/// Tensor fingerprint: order, mode lengths, nnz, and a layout tag (the BLCO
/// block capacity for training records, a format label for others).
std::uint64_t digest_tensor_fingerprint(const SparseTensor& x,
                                        std::uint64_t layout_tag);
std::uint64_t digest_shape_fingerprint(const std::vector<index_t>& dims,
                                       index_t nnz, std::uint64_t layout_tag);

/// In-memory LRU cache of tuning records with typed persistent storage.
class TuningCache {
 public:
  explicit TuningCache(std::size_t capacity = kDefaultTuningCacheCapacity);

  /// Most-recently-used lookup; bumps the entry and the hit counter on a
  /// match, the miss counter otherwise. The pointer is invalidated by the
  /// next put()/load.
  const TuningRecord* find(const TuningKey& key);

  /// Inserts or replaces the record for `key` as most-recently used,
  /// evicting the least-recently-used entry beyond capacity.
  void put(const TuningKey& key, TuningRecord record);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }

  /// Loads a CSTFTUNE file; throws ModelIoError on any defect (missing
  /// file, bad magic, wrong version, truncation, corrupt record fields,
  /// checksum mismatch). Counters start at zero.
  static TuningCache load(const std::string& path,
                          std::size_t capacity = kDefaultTuningCacheCapacity);

  /// Load that treats every defect as invalidation: a missing, corrupt, or
  /// version-incompatible file yields an empty cache (with a warning for
  /// everything except a cleanly missing file). This is what tuned runs use
  /// — a stale cache must never fail a factorization.
  static TuningCache load_or_empty(
      const std::string& path,
      std::size_t capacity = kDefaultTuningCacheCapacity);

  /// Crash-consistent save (tmp + rename, trailing FNV-1a). Throws
  /// ModelIoError(kOpenFailed / kWriteFailed).
  void save(const std::string& path) const;

 private:
  struct Entry {
    TuningKey key;
    TuningRecord record;
  };

  std::size_t capacity_;
  std::list<Entry> entries_;  // LRU order: front = oldest, back = newest
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace cstf::autotune
