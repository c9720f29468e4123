// Autotuning subsystem tests: the CSTFTUNE cache (round trip, LRU,
// corruption taxonomy), the deterministic trial protocol, policy dispatch,
// the golden decision tables for the cost-model resolvers the trials
// calibrate against, and the serve-batcher tuner.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "autotune/tuning.hpp"
#include "common/binio.hpp"
#include "common/random.hpp"
#include "cstf/framework.hpp"
#include "formats/blco.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "simgpu/device.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

using autotune::BatcherCalibration;
using autotune::BatcherTuning;
using autotune::TuningCache;
using autotune::TuningKey;
using autotune::TuningOptions;
using autotune::TuningOutcome;
using autotune::TuningPolicy;
using autotune::TuningRecord;
using autotune::TuneInputs;

SparseTensor random_tensor(std::vector<index_t> dims, index_t nnz,
                           std::uint64_t seed) {
  RandomTensorParams p;
  p.dims = std::move(dims);
  p.target_nnz = nnz;
  p.seed = seed;
  return generate_random(p);
}

TuningKey key_of(std::uint64_t tag) {
  TuningKey k;
  k.device_digest = 0x1000 + tag;
  k.tensor_digest = 0x2000 + tag;
  k.rank = 16 + tag;
  k.options_digest = 0x3000 + tag;
  return k;
}

TuningRecord sample_record(int modes) {
  TuningRecord r;
  for (int m = 0; m < modes; ++m) {
    r.scatter_per_mode.push_back(m % 2 == 0 ? ScatterStrategy::kSorted
                                            : ScatterStrategy::kPrivatized);
  }
  r.chunks_per_worker = 8;
  r.batcher_linger_s = 0.0035;
  r.batcher_max_batch = 24;
  r.batcher_arrival_rate_rps = 512.25;
  r.measured_best_s = 0.0011;
  r.measured_model_s = 0.0017;
  r.modeled_best_s = 0.00042;
  r.modeled_model_s = 0.00057;
  r.seed = 0x74756e65;
  r.best_of = 3;
  r.sample_nnz = 4096;
  r.provenance = "unit-test record";
  return r;
}

void expect_records_equal(const TuningRecord& a, const TuningRecord& b) {
  EXPECT_EQ(a.scatter_per_mode, b.scatter_per_mode);
  EXPECT_EQ(a.chunks_per_worker, b.chunks_per_worker);
  EXPECT_EQ(a.batcher_linger_s, b.batcher_linger_s);
  EXPECT_EQ(a.batcher_max_batch, b.batcher_max_batch);
  EXPECT_EQ(a.batcher_arrival_rate_rps, b.batcher_arrival_rate_rps);
  EXPECT_EQ(a.measured_best_s, b.measured_best_s);
  EXPECT_EQ(a.measured_model_s, b.measured_model_s);
  EXPECT_EQ(a.modeled_best_s, b.modeled_best_s);
  EXPECT_EQ(a.modeled_model_s, b.modeled_model_s);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.best_of, b.best_of);
  EXPECT_EQ(a.sample_nnz, b.sample_nnz);
  EXPECT_EQ(a.provenance, b.provenance);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ModelIoStatus load_status(const std::string& path) {
  try {
    TuningCache::load(path);
  } catch (const ModelIoError& e) {
    return e.status();
  }
  ADD_FAILURE() << "TuningCache::load(" << path << ") unexpectedly succeeded";
  return ModelIoStatus::kOpenFailed;
}

TEST(TuningCacheTest, RoundTripBitIdentical) {
  const std::string path = ::testing::TempDir() + "/roundtrip.cstftune";
  TuningCache cache(8);
  cache.put(key_of(1), sample_record(3));
  cache.put(key_of(2), sample_record(4));
  cache.save(path);

  TuningCache loaded = TuningCache::load(path, 8);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.hits(), 0);
  EXPECT_EQ(loaded.misses(), 0);
  const TuningRecord* a = loaded.find(key_of(1));
  const TuningRecord* b = loaded.find(key_of(2));
  ASSERT_NE(a, nullptr);
  expect_records_equal(*a, sample_record(3));
  ASSERT_NE(b, nullptr);
  expect_records_equal(*b, sample_record(4));
  EXPECT_EQ(loaded.hits(), 2);

  // Second save of the loaded cache is bit-identical to re-serializing the
  // same entries (modulo the LRU order the finds above established).
  const std::string path2 = ::testing::TempDir() + "/roundtrip2.cstftune";
  loaded.save(path2);
  TuningCache again = TuningCache::load(path2, 8);
  ASSERT_EQ(again.size(), 2u);
}

TEST(TuningCacheTest, LruEvictionAndCounters) {
  TuningCache cache(2);
  cache.put(key_of(1), sample_record(3));
  cache.put(key_of(2), sample_record(3));
  EXPECT_NE(cache.find(key_of(1)), nullptr);  // bump 1 ahead of 2
  cache.put(key_of(3), sample_record(3));     // evicts 2 (now the oldest)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_NE(cache.find(key_of(3)), nullptr);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(TuningCacheIo, CorruptionTaxonomy) {
  const std::string path = ::testing::TempDir() + "/taxonomy.cstftune";
  TuningCache cache(4);
  cache.put(key_of(7), sample_record(3));
  cache.save(path);
  const std::vector<char> good = read_bytes(path);
  ASSERT_GT(good.size(), 20u);

  // Missing file.
  EXPECT_EQ(load_status(::testing::TempDir() + "/no_such.cstftune"),
            ModelIoStatus::kOpenFailed);

  // Truncated: the trailing checksum is cut short.
  std::vector<char> truncated = good;
  truncated.resize(truncated.size() - 4);
  write_bytes(path, truncated);
  EXPECT_EQ(load_status(path), ModelIoStatus::kTruncated);

  // Bit flip in the stored checksum itself: everything parses, the digest
  // disagrees.
  std::vector<char> flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x5a);
  write_bytes(path, flipped);
  EXPECT_EQ(load_status(path), ModelIoStatus::kChecksumMismatch);

  // Bit flip inside the payload (the provenance string lives near the end).
  std::vector<char> payload_flip = good;
  payload_flip[payload_flip.size() - 12] =
      static_cast<char>(payload_flip[payload_flip.size() - 12] ^ 0x01);
  write_bytes(path, payload_flip);
  EXPECT_EQ(load_status(path), ModelIoStatus::kChecksumMismatch);

  // Wrong format version (bytes 8..11, right after the 8-byte magic).
  std::vector<char> wrong_version = good;
  wrong_version[8] = static_cast<char>(0x7f);
  write_bytes(path, wrong_version);
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadVersion);

  // Wrong magic.
  std::vector<char> bad_magic = good;
  bad_magic[0] = 'X';
  write_bytes(path, bad_magic);
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadMagic);
}

TEST(TuningCacheIo, LoadOrEmptyTurnsEveryDefectIntoAnEmptyCache) {
  const std::string path = ::testing::TempDir() + "/defect.cstftune";
  TuningCache cache(4);
  cache.put(key_of(9), sample_record(3));
  cache.save(path);
  std::vector<char> bytes = read_bytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
  write_bytes(path, bytes);

  TuningCache recovered = TuningCache::load_or_empty(path, 4);
  EXPECT_EQ(recovered.size(), 0u);
  // A cleanly missing file is also an empty cache, silently.
  TuningCache missing =
      TuningCache::load_or_empty(::testing::TempDir() + "/missing.cstftune", 4);
  EXPECT_EQ(missing.size(), 0u);
}

// A cache written by the previous format (v1, whose records still carried
// the MTTKRP engine byte and its chain budget) is refused with the typed
// version error, and a tuned run starts from an empty cache instead.
TEST(TuningCacheIo, VersionOneFileIsRefusedAndLoadsEmpty) {
  ASSERT_EQ(autotune::kTuningCacheFormatVersion, 2u);
  const std::string path = ::testing::TempDir() + "/v1.cstftune";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    HashingWriter w(out);
    w.write("CSTFTUNE", 8);
    w.write_pod(std::uint32_t{1});
    w.write_pod(std::uint64_t{1});  // one entry
    const TuningKey k = key_of(3);
    for (std::uint64_t v : {k.device_digest, k.tensor_digest, k.rank,
                            k.options_digest}) {
      w.write_pod(v);
    }
    w.write_pod(std::uint64_t{3});  // modes
    for (int m = 0; m < 3; ++m) {
      w.write_pod(static_cast<std::uint8_t>(ScatterStrategy::kSorted));
    }
    w.write_pod(std::uint8_t{1});      // v1: engine byte (flat)
    w.write_pod(256.0 * 1024 * 1024);  // v1: chain budget
    w.write_pod(std::uint32_t{0});     // chunks per worker
    w.write_pod(0.0);                  // batcher linger
    w.write_pod(std::uint32_t{0});     // batcher max batch
    for (int i = 0; i < 5; ++i) w.write_pod(0.0);  // rate + evidence
    w.write_pod(std::uint64_t{7});     // seed
    w.write_pod(std::uint32_t{1});     // best-of
    w.write_pod(std::uint64_t{100});   // sample nnz
    w.write_pod(std::uint64_t{0});     // provenance length
    const std::uint64_t checksum = w.digest();
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  }
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadVersion);
  EXPECT_EQ(TuningCache::load_or_empty(path, 4).size(), 0u);
}

TEST(TuningTrials, SampleIsDeterministicAndBounded) {
  const SparseTensor x = random_tensor({64, 96, 128}, 5000, 21);
  const SparseTensor a = autotune::sample_nonzeros(x, 1000, 5);
  const SparseTensor b = autotune::sample_nonzeros(x, 1000, 5);
  ASSERT_EQ(a.nnz(), 1000);
  ASSERT_EQ(b.nnz(), 1000);
  EXPECT_EQ(a.dims(), x.dims());
  for (int m = 0; m < x.num_modes(); ++m) {
    EXPECT_EQ(a.indices(m), b.indices(m)) << "mode " << m;
  }
  EXPECT_EQ(a.values(), b.values());

  // Small tensors are passed through whole.
  const SparseTensor whole = autotune::sample_nonzeros(x, 100000, 5);
  EXPECT_EQ(whole.nnz(), x.nnz());
}

TEST(TuningTrials, DeterministicUnderFixedSeedOnModelClock) {
  const SparseTensor x = random_tensor({96, 128, 160}, 4000, 33);
  TuneInputs in;
  in.tensor = &x;
  in.rank = 8;
  in.spec = simgpu::a100();
  TuningOptions opts;
  opts.use_host_clock = false;  // rank by modeled time: fully deterministic
  opts.best_of = 1;
  opts.max_sample_nnz = 1000;

  const TuningRecord r1 = autotune::run_tuning_trials(in, opts);
  const TuningRecord r2 = autotune::run_tuning_trials(in, opts);
  EXPECT_EQ(r1.scatter_per_mode, r2.scatter_per_mode);
  EXPECT_EQ(r1.chunks_per_worker, r2.chunks_per_worker);
  EXPECT_EQ(r1.modeled_best_s, r2.modeled_best_s);
  EXPECT_EQ(r1.modeled_model_s, r2.modeled_model_s);
  EXPECT_EQ(r1.sample_nnz, 1000u);
  // Decision fields are concrete and applicable as-is.
  EXPECT_TRUE(autotune::record_applies(r1, in));
  // Without the host clock the chunk sweep has nothing to rank on.
  EXPECT_EQ(r1.chunks_per_worker, 0u);
}

// The trials time the kernels training runs: on the model clock, the
// winning configuration's evidence equals one sweep of mttkrp_blco over a
// BLCO tensor of the same sample, with the same seeded factors. That sweep
// launches only the BLCO MTTKRP kernels and their output zeroing.
TEST(TuningTrials, TimeTheBlcoKernelsTrainingRuns) {
  const SparseTensor x = random_tensor({96, 128, 160}, 4000, 35);
  TuneInputs in;
  in.tensor = &x;
  in.rank = 8;
  in.spec = simgpu::a100();
  in.scatter.deterministic = true;  // one candidate per mode: sorted
  in.block_capacity = 512;
  TuningOptions opts;
  opts.use_host_clock = false;
  opts.best_of = 1;
  opts.max_sample_nnz = 1000;
  const TuningRecord rec = autotune::run_tuning_trials(in, opts);
  ASSERT_EQ(rec.scatter_per_mode,
            std::vector<ScatterStrategy>(3, ScatterStrategy::kSorted));

  const SparseTensor sample =
      autotune::sample_nonzeros(x, opts.max_sample_nnz, opts.seed);
  const BlcoTensor blco(sample, in.block_capacity);
  Rng rng(opts.seed);
  std::vector<Matrix> factors;
  for (int m = 0; m < x.num_modes(); ++m) {
    factors.emplace_back(x.dim(m), in.rank);
    factors.back().fill_uniform(rng, 0.0, 1.0);
  }
  ScatterOptions sorted = in.scatter;
  sorted.strategy = ScatterStrategy::kSorted;
  simgpu::Device dev(in.spec);
  for (int m = 0; m < x.num_modes(); ++m) {
    Matrix out(x.dim(m), in.rank);
    mttkrp_blco(dev, blco, factors, m, out, sorted);
  }
  EXPECT_EQ(rec.modeled_best_s, dev.modeled_time_s());
  EXPECT_EQ(dev.per_kernel().count("mttkrp_blco_sorted"), 1u);
  for (const auto& [name, stats] : dev.per_kernel()) {
    EXPECT_TRUE(name.rfind("mttkrp_blco", 0) == 0 || name == "mttkrp_zero_out")
        << name;
  }
}

TEST(TuningTrials, RecordAppliesValidation) {
  const SparseTensor x = random_tensor({64, 96, 128}, 3000, 41);
  TuneInputs in;
  in.tensor = &x;
  in.rank = 8;
  in.spec = simgpu::a100();

  TuningRecord good;
  good.scatter_per_mode = {ScatterStrategy::kSorted, ScatterStrategy::kAtomic,
                           ScatterStrategy::kPrivatized};
  good.chunks_per_worker = 4;
  EXPECT_TRUE(autotune::record_applies(good, in));

  TuningRecord wrong_modes = good;
  wrong_modes.scatter_per_mode.pop_back();
  EXPECT_FALSE(autotune::record_applies(wrong_modes, in));

  TuningRecord has_auto = good;
  has_auto.scatter_per_mode[1] = ScatterStrategy::kAuto;
  EXPECT_FALSE(autotune::record_applies(has_auto, in));

  TuneInputs det = in;
  det.scatter.deterministic = true;
  EXPECT_FALSE(autotune::record_applies(good, det));  // entry 1 is atomic

  TuneInputs no_scratch = in;
  no_scratch.scatter.privatization_budget_bytes = 1.0;
  EXPECT_FALSE(autotune::record_applies(good, no_scratch));  // privatized pick

  TuningRecord wild_chunks = good;
  wild_chunks.chunks_per_worker = 65;
  EXPECT_FALSE(autotune::record_applies(wild_chunks, in));
}

TEST(TuningResolve, ModelPolicyIsNoop) {
  const SparseTensor x = random_tensor({64, 96, 128}, 3000, 51);
  TuneInputs in;
  in.tensor = &x;
  in.rank = 8;
  in.spec = simgpu::a100();
  TuningOptions opts;  // policy defaults to kModel
  const TuningOutcome out = autotune::resolve_tuning(in, opts);
  EXPECT_FALSE(out.applied);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_FALSE(out.trials_run);
}

TEST(TuningResolve, CachedSecondRunHitsWithoutTrials) {
  const SparseTensor x = random_tensor({96, 128, 160}, 4000, 61);
  const std::string path = ::testing::TempDir() + "/resolve.cstftune";
  std::filesystem::remove(path);

  TuneInputs in;
  in.tensor = &x;
  in.rank = 8;
  in.spec = simgpu::a100();
  TuningOptions opts;
  opts.policy = TuningPolicy::kCached;
  opts.cache_path = path;
  opts.use_host_clock = false;
  opts.best_of = 1;
  opts.max_sample_nnz = 1000;

  const TuningOutcome first = autotune::resolve_tuning(in, opts);
  EXPECT_TRUE(first.applied);
  EXPECT_TRUE(first.trials_run);
  EXPECT_FALSE(first.cache_hit);

  const TuningOutcome second = autotune::resolve_tuning(in, opts);
  EXPECT_TRUE(second.applied);
  EXPECT_FALSE(second.trials_run);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.record.scatter_per_mode, first.record.scatter_per_mode);

  // Counter-verified against the persisted file directly.
  TuningCache cache = TuningCache::load(path);
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(first.key), nullptr);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 0);

  // A different device is a key miss by construction.
  TuneInputs other = in;
  other.spec = simgpu::h100();
  EXPECT_EQ(cache.find(autotune::make_tuning_key(other, opts)), nullptr);
  EXPECT_EQ(cache.misses(), 1);
}

// Golden decision table for the scatter resolver across a
// (mode length, nnz, budget, determinism) sweep. Budgets are expressed as
// multiples of the exact tile footprint so the table is independent of the
// host's worker count.
TEST(DecisionGolden, ScatterStrategyTable) {
  const index_t rank = 16;
  const auto tile_footprint = [&](index_t mode_len, index_t nnz) {
    return static_cast<double>(privatized_tile_count(nnz)) *
           static_cast<double>(mode_len) * static_cast<double>(rank) * 8.0;
  };
  struct Case {
    index_t mode_len;
    index_t nnz;
    double budget_mult;  // x tile_footprint
    bool deterministic;
    ScatterStrategy want;
  };
  const Case table[] = {
      // Fits the scratch budget -> privatized, deterministic or not.
      {256, 4096, 2.0, false, ScatterStrategy::kPrivatized},
      {256, 4096, 2.0, true, ScatterStrategy::kPrivatized},
      // Over budget, deterministic -> sorted.
      {256, 4096, 0.5, true, ScatterStrategy::kSorted},
      // Over budget, high contention (16 updates/row) -> sorted.
      {256, 4096, 0.5, false, ScatterStrategy::kSorted},
      // Over budget, exactly at the 8 updates/row threshold -> sorted.
      {512, 4096, 0.5, false, ScatterStrategy::kSorted},
      // Over budget, low contention (1 update/row) -> atomic.
      {4096, 4096, 0.5, false, ScatterStrategy::kAtomic},
      {4096, 4096, 0.5, true, ScatterStrategy::kSorted},
  };
  for (const Case& c : table) {
    ScatterOptions opts;
    opts.deterministic = c.deterministic;
    opts.privatization_budget_bytes =
        c.budget_mult * tile_footprint(c.mode_len, c.nnz);
    EXPECT_EQ(resolve_scatter_strategy(opts, c.mode_len, rank, c.nnz), c.want)
        << "mode_len=" << c.mode_len << " nnz=" << c.nnz
        << " budget_mult=" << c.budget_mult << " det=" << c.deterministic;
  }

  // Explicit requests pass through — except atomic under determinism, which
  // re-resolves as auto.
  ScatterOptions forced;
  forced.strategy = ScatterStrategy::kSorted;
  EXPECT_EQ(resolve_scatter_strategy(forced, 4096, rank, 4096),
            ScatterStrategy::kSorted);
  ScatterOptions det_atomic;
  det_atomic.strategy = ScatterStrategy::kAtomic;
  det_atomic.deterministic = true;
  det_atomic.privatization_budget_bytes = 1.0;
  EXPECT_EQ(resolve_scatter_strategy(det_atomic, 4096, rank, 4096),
            ScatterStrategy::kSorted);
}

TEST(DecisionGolden, PerModeOverridesWinUnlessIllegal) {
  const index_t rank = 16;
  ScatterOptions opts;
  opts.privatization_budget_bytes = 1.0;  // auto path resolves over budget
  opts.per_mode = {ScatterStrategy::kPrivatized, ScatterStrategy::kAuto};

  // Concrete override wins even against the auto resolution.
  EXPECT_EQ(resolve_scatter_strategy_for_mode(opts, 0, 4096, rank, 4096),
            ScatterStrategy::kPrivatized);
  // kAuto entry falls through (low contention -> atomic).
  EXPECT_EQ(resolve_scatter_strategy_for_mode(opts, 1, 4096, rank, 4096),
            ScatterStrategy::kAtomic);
  // Modes beyond the vector fall through too.
  EXPECT_EQ(resolve_scatter_strategy_for_mode(opts, 2, 4096, rank, 4096),
            ScatterStrategy::kAtomic);

  // A cached atomic pick must not defeat determinism.
  ScatterOptions det = opts;
  det.deterministic = true;
  det.per_mode = {ScatterStrategy::kAtomic};
  EXPECT_EQ(resolve_scatter_strategy_for_mode(det, 0, 4096, rank, 4096),
            ScatterStrategy::kSorted);
}

TEST(BatcherTuner, DegenerateCalibrationKeepsDefaults) {
  const BatcherTuning t = autotune::tune_fold_in_batcher(BatcherCalibration{});
  EXPECT_EQ(t.max_batch, 64u);
  EXPECT_EQ(t.linger_s, 0.002);

  const BatcherTuning capped =
      autotune::tune_fold_in_batcher(BatcherCalibration{}, 16, 0.001);
  EXPECT_EQ(capped.max_batch, 16u);
  EXPECT_EQ(capped.linger_s, 0.001);
}

TEST(BatcherTuner, PicksThroughputKneeAndLinger) {
  BatcherCalibration cal;
  cal.solve_base_s = 1e-3;
  cal.solve_per_row_s = 1e-5;
  cal.arrival_rate_rps = 1000.0;
  const BatcherTuning t = autotune::tune_fold_in_batcher(cal);
  // Smallest B with B/(c0 + c1 B) >= 0.95 * thr(64): B = 59 for these
  // coefficients; the linger to collect 58 more arrivals at 1000 rps is
  // 58 ms, clamped to the 50 ms cap.
  EXPECT_EQ(t.max_batch, 59u);
  EXPECT_EQ(t.linger_s, 0.05);

  // No measured arrivals -> no reason to linger.
  cal.arrival_rate_rps = 0.0;
  EXPECT_EQ(autotune::tune_fold_in_batcher(cal).linger_s, 0.0);

  // A cheap base cost moves the knee to smaller batches.
  BatcherCalibration cheap = cal;
  cheap.arrival_rate_rps = 1000.0;
  cheap.solve_base_s = 1e-5;
  const BatcherTuning small = autotune::tune_fold_in_batcher(cheap);
  EXPECT_LT(small.max_batch, t.max_batch);
  EXPECT_GE(small.max_batch, 1u);
}

// The default kModel policy must stay the bit-identical legacy path: no
// trials, no per-mode picks, and two identical deterministic runs agree
// bitwise.
TEST(TuningFramework, ModelPolicyKeepsFactorsBitIdentical) {
  const SparseTensor x = random_tensor({48, 64, 80}, 2500, 91);
  FrameworkOptions options;
  options.rank = 4;
  options.max_iterations = 2;
  options.scatter.deterministic = true;

  CstfFramework a(x, options);
  a.run();
  EXPECT_FALSE(a.tuning().applied);
  EXPECT_TRUE(a.tuning().record.scatter_per_mode.empty());

  CstfFramework b(x, options);
  b.run();
  const KTensor ka = a.ktensor();
  const KTensor kb = b.ktensor();
  ASSERT_EQ(ka.factors.size(), kb.factors.size());
  for (std::size_t m = 0; m < ka.factors.size(); ++m) {
    EXPECT_EQ(max_abs_diff(ka.factors[m], kb.factors[m]), 0.0) << "mode " << m;
  }
}

// kMeasure through the framework: the tuned run must still produce a valid
// factorization and report an applied, concrete decision.
TEST(TuningFramework, MeasurePolicyAppliesConcreteDecision) {
  const SparseTensor x = random_tensor({48, 64, 80}, 2500, 91);
  FrameworkOptions options;
  options.rank = 4;
  options.max_iterations = 2;
  options.tuning.policy = TuningPolicy::kMeasure;
  options.tuning.best_of = 1;
  options.tuning.max_sample_nnz = 800;
  options.tuning.use_host_clock = false;

  CstfFramework framework(x, options);
  framework.run();
  const TuningOutcome& out = framework.tuning();
  EXPECT_TRUE(out.applied);
  EXPECT_TRUE(out.trials_run);
  ASSERT_EQ(out.record.scatter_per_mode.size(),
            static_cast<std::size_t>(x.num_modes()));
  for (ScatterStrategy s : out.record.scatter_per_mode) {
    EXPECT_NE(s, ScatterStrategy::kAuto);
  }
  framework.ktensor().validate();
}

}  // namespace
}  // namespace cstf
