#include "autotune/tuning_cache.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "metrics/registry.hpp"

namespace cstf::autotune {

namespace {

// Process-wide mirrors of every TuningCache instance's counters; the
// per-instance hits()/misses()/evictions() (resettable by load) stay as-is.
void bump_cache_metric(const char* name) {
  metrics::MetricsRegistry::global()
      .counter(std::string("autotune.tuning_cache.") + name)
      ->inc();
}

constexpr char kMagic[8] = {'C', 'S', 'T', 'F', 'T', 'U', 'N', 'E'};
constexpr std::uint64_t kMaxCacheEntries = 1u << 16;
constexpr std::uint64_t kMaxRecordModes = kMaxModes;
constexpr std::uint64_t kMaxProvenanceBytes = 1u << 12;

bool valid_strategy_byte(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(ScatterStrategy::kSorted);
}

}  // namespace

std::uint64_t digest_device_spec(const simgpu::DeviceSpec& spec) {
  DigestBuilder d;
  d.str(spec.name)
      .f64(spec.peak_flops)
      .f64(spec.mem_bandwidth)
      .f64(spec.stream_bw_fraction)
      .f64(spec.random_bw_fraction)
      .f64(spec.cache_bytes)
      .f64(spec.launch_overhead)
      .f64(spec.saturation_parallelism)
      .f64(spec.serial_op_rate)
      .f64(spec.atomic_rate)
      .f64(spec.host_link_bandwidth)
      .f64(spec.host_link_latency);
  return d.value();
}

std::uint64_t digest_shape_fingerprint(const std::vector<index_t>& dims,
                                       index_t nnz, std::uint64_t layout_tag) {
  DigestBuilder d;
  d.u64(static_cast<std::uint64_t>(dims.size()));
  for (index_t len : dims) d.u64(static_cast<std::uint64_t>(len));
  d.u64(static_cast<std::uint64_t>(nnz)).u64(layout_tag);
  return d.value();
}

std::uint64_t digest_tensor_fingerprint(const SparseTensor& x,
                                        std::uint64_t layout_tag) {
  return digest_shape_fingerprint(x.dims(), x.nnz(), layout_tag);
}

TuningCache::TuningCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

const TuningRecord* TuningCache::find(const TuningKey& key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      entries_.splice(entries_.end(), entries_, it);  // bump to MRU
      ++hits_;
      bump_cache_metric("hits");
      return &entries_.back().record;
    }
  }
  ++misses_;
  bump_cache_metric("misses");
  return nullptr;
}

void TuningCache::put(const TuningKey& key, TuningRecord record) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      it->record = std::move(record);
      entries_.splice(entries_.end(), entries_, it);
      return;
    }
  }
  entries_.push_back(Entry{key, std::move(record)});
  while (entries_.size() > capacity_) {
    entries_.pop_front();
    ++evictions_;
    bump_cache_metric("evictions");
  }
}

void TuningCache::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw_model_io(ModelIoStatus::kOpenFailed, "cannot create " + tmp);
    }
    HashingWriter w(out);
    w.write(kMagic, sizeof(kMagic));
    w.write_pod(kTuningCacheFormatVersion);
    w.write_pod(static_cast<std::uint64_t>(entries_.size()));
    for (const Entry& e : entries_) {
      w.write_pod(e.key.device_digest);
      w.write_pod(e.key.tensor_digest);
      w.write_pod(e.key.rank);
      w.write_pod(e.key.options_digest);

      const TuningRecord& rec = e.record;
      w.write_pod(static_cast<std::uint64_t>(rec.scatter_per_mode.size()));
      for (ScatterStrategy s : rec.scatter_per_mode) {
        w.write_pod(static_cast<std::uint8_t>(s));
      }
      w.write_pod(rec.chunks_per_worker);
      w.write_pod(rec.batcher_linger_s);
      w.write_pod(rec.batcher_max_batch);
      w.write_pod(rec.batcher_arrival_rate_rps);
      w.write_pod(rec.measured_best_s);
      w.write_pod(rec.measured_model_s);
      w.write_pod(rec.modeled_best_s);
      w.write_pod(rec.modeled_model_s);
      w.write_pod(rec.seed);
      w.write_pod(rec.best_of);
      w.write_pod(rec.sample_nnz);
      w.write_pod(static_cast<std::uint64_t>(rec.provenance.size()));
      w.write(rec.provenance.data(), rec.provenance.size());
    }
    const std::uint64_t checksum = w.digest();
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.close();
    if (!out.good()) {
      std::remove(tmp.c_str());
      throw_model_io(ModelIoStatus::kWriteFailed, "write failed for " + tmp);
    }
  }
  commit_tmp_file(tmp, path);
}

TuningCache TuningCache::load(const std::string& path, std::size_t capacity) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw_model_io(ModelIoStatus::kOpenFailed, "cannot open " + path);
  }
  HashingReader r(in, path);

  char magic[sizeof(kMagic)];
  r.read(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw_model_io(ModelIoStatus::kBadMagic,
                   path + " is not a CSTFTUNE tuning cache file");
  }
  const auto version = r.read_pod<std::uint32_t>("version");
  if (version != kTuningCacheFormatVersion) {
    throw_model_io(ModelIoStatus::kBadVersion,
                   path + ": format version " + std::to_string(version) +
                       " (expected " +
                       std::to_string(kTuningCacheFormatVersion) + ")");
  }

  TuningCache cache(capacity);
  const auto count = r.read_pod<std::uint64_t>("entry count");
  if (count > kMaxCacheEntries) {
    throw_model_io(ModelIoStatus::kCorruptHeader,
                   path + ": implausible entry count " + std::to_string(count));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    TuningKey key;
    key.device_digest = r.read_pod<std::uint64_t>("device digest");
    key.tensor_digest = r.read_pod<std::uint64_t>("tensor digest");
    key.rank = r.read_pod<std::uint64_t>("rank");
    key.options_digest = r.read_pod<std::uint64_t>("options digest");

    TuningRecord rec;
    const auto modes = r.read_pod<std::uint64_t>("mode count");
    if (modes > kMaxRecordModes) {
      throw_model_io(ModelIoStatus::kCorruptHeader,
                     path + ": implausible mode count " +
                         std::to_string(modes));
    }
    rec.scatter_per_mode.reserve(static_cast<std::size_t>(modes));
    for (std::uint64_t m = 0; m < modes; ++m) {
      const auto s = r.read_pod<std::uint8_t>("scatter strategy");
      if (!valid_strategy_byte(s)) {
        throw_model_io(ModelIoStatus::kInvalidModel,
                       path + ": unknown scatter strategy byte " +
                           std::to_string(static_cast<unsigned>(s)));
      }
      rec.scatter_per_mode.push_back(static_cast<ScatterStrategy>(s));
    }
    rec.chunks_per_worker = r.read_pod<std::uint32_t>("chunks per worker");
    rec.batcher_linger_s = r.read_pod<double>("batcher linger");
    rec.batcher_max_batch = r.read_pod<std::uint32_t>("batcher max batch");
    rec.batcher_arrival_rate_rps = r.read_pod<double>("arrival rate");
    rec.measured_best_s = r.read_pod<double>("measured best");
    rec.measured_model_s = r.read_pod<double>("measured model");
    rec.modeled_best_s = r.read_pod<double>("modeled best");
    rec.modeled_model_s = r.read_pod<double>("modeled model");
    rec.seed = r.read_pod<std::uint64_t>("seed");
    rec.best_of = r.read_pod<std::uint32_t>("best-of");
    rec.sample_nnz = r.read_pod<std::uint64_t>("sample nnz");
    const auto prov_len = r.read_pod<std::uint64_t>("provenance length");
    if (prov_len > kMaxProvenanceBytes) {
      throw_model_io(ModelIoStatus::kCorruptHeader,
                     path + ": implausible provenance length " +
                         std::to_string(prov_len));
    }
    rec.provenance.resize(static_cast<std::size_t>(prov_len));
    if (prov_len > 0) {
      r.read(rec.provenance.data(), rec.provenance.size(), "provenance");
    }
    for (double v : {rec.batcher_linger_s,
                     rec.batcher_arrival_rate_rps, rec.measured_best_s,
                     rec.measured_model_s, rec.modeled_best_s,
                     rec.modeled_model_s}) {
      if (!std::isfinite(v) || v < 0.0) {
        throw_model_io(ModelIoStatus::kInvalidModel,
                       path + ": non-finite or negative tuning field");
      }
    }
    cache.put(key, std::move(rec));
  }

  const std::uint64_t expected = r.digest();
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored)) {
    throw_model_io(ModelIoStatus::kTruncated,
                   path + ": truncated reading checksum");
  }
  if (stored != expected) {
    throw_model_io(ModelIoStatus::kChecksumMismatch,
                   path + ": checksum mismatch (file is corrupt)");
  }
  // load() itself performed put()s; lookups start with clean counters.
  cache.hits_ = 0;
  cache.misses_ = 0;
  cache.evictions_ = 0;
  return cache;
}

TuningCache TuningCache::load_or_empty(const std::string& path,
                                       std::size_t capacity) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe.good()) return TuningCache(capacity);  // no cache yet: start cold
  probe.close();
  try {
    return load(path, capacity);
  } catch (const ModelIoError& e) {
    CSTF_LOG_WARN("tuning cache " << path << " rejected ("
                                  << model_io_status_name(e.status())
                                  << "); starting empty");
    return TuningCache(capacity);
  }
}

}  // namespace cstf::autotune
