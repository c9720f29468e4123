#include "autotune/tuning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/digest.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "la/matrix.hpp"
#include "metrics/registry.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/device.hpp"

namespace cstf::autotune {

namespace {

// One autotune.trials tick per timed measurement (warmups excluded).
void count_trial() {
  static metrics::Counter* trials =
      metrics::MetricsRegistry::global().counter("autotune.trials");
  trials->inc();
}

/// One timed candidate: the best-of-N minimum host wall time and the (repeat-
/// invariant) modeled roofline time of the same kernel sequence.
struct TrialTime {
  double wall_s = std::numeric_limits<double>::infinity();
  double modeled_s = std::numeric_limits<double>::infinity();
};

double rank_metric(const TrialTime& t, bool use_host_clock) {
  return use_host_clock ? t.wall_s : t.modeled_s;
}

/// Does a full-size privatized pass fit the scratch budget? Mirrors
/// resolve_scatter_strategy's feasibility test so trial candidates and the
/// model prior agree on what is even legal.
bool privatized_fits(const ScatterOptions& opts, index_t mode_len,
                     index_t rank, index_t nnz) {
  const double tile_bytes = static_cast<double>(mode_len) *
                            static_cast<double>(rank) * simgpu::kWord;
  const auto tiles = static_cast<double>(privatized_tile_count(nnz));
  return tiles * tile_bytes <= opts.privatization_budget_bytes;
}

/// The strategy the cost model alone would run for this mode — through the
/// same lens the backends use (deterministic forces the sorted order, the one
/// that reproduces the reference bit-for-bit).
ScatterStrategy model_scatter_pick(const ScatterOptions& opts,
                                   index_t mode_len, index_t rank,
                                   index_t nnz) {
  if (opts.deterministic) return ScatterStrategy::kSorted;
  return resolve_scatter_strategy(opts, mode_len, rank, nnz);
}

/// Candidate strategies for one mode. An explicit request (or determinism)
/// collapses the set to the one strategy the kernels would actually run;
/// kAuto opens the full set, privatized gated on full-size feasibility.
std::vector<ScatterStrategy> scatter_candidates(const ScatterOptions& opts,
                                                index_t mode_len, index_t rank,
                                                index_t full_nnz) {
  if (opts.deterministic) return {ScatterStrategy::kSorted};
  if (opts.strategy != ScatterStrategy::kAuto) return {opts.strategy};
  std::vector<ScatterStrategy> c = {ScatterStrategy::kAtomic,
                                    ScatterStrategy::kSorted};
  if (privatized_fits(opts, mode_len, rank, full_nnz)) {
    c.push_back(ScatterStrategy::kPrivatized);
  }
  return c;
}

/// One MTTKRP of `mode` with a forced strategy, dispatched exactly like
/// BlcoBackend::mttkrp: the BLCO kernel training runs, with the sorted plan
/// taken from `plans`.
void run_blco_mode(simgpu::Device& dev, const BlcoTensor& blco,
                   ScatterPlanCache& plans, const std::vector<Matrix>& factors,
                   int mode, ScatterStrategy strategy,
                   const ScatterOptions& base, Matrix& out) {
  ScatterOptions o = base;
  o.strategy = strategy;
  o.strategy = resolve_scatter_strategy_for_mode(
      o, mode, out.rows(), out.cols(), blco.nnz());
  const ScatterPlan* plan = nullptr;
  if (o.strategy == ScatterStrategy::kSorted) {
    plan = &plans.get(mode, [&] { return blco_scatter_plan(blco, mode); });
  }
  mttkrp_blco(dev, blco, factors, mode, out, o, plan);
}

/// Times `body(dev)` best-of-N. The warmup run builds the sorted plans and
/// leases scratch outside the timed window; a fresh Device per repeat keeps
/// the modeled time per-execution.
template <typename Body>
TrialTime time_best_of(const simgpu::DeviceSpec& spec, std::uint32_t best_of,
                       const Body& body) {
  {
    simgpu::Device warm(spec);
    body(warm);
  }
  TrialTime t;
  for (std::uint32_t rep = 0; rep < std::max<std::uint32_t>(1, best_of);
       ++rep) {
    simgpu::Device dev(spec);
    Timer timer;
    body(dev);
    t.wall_s = std::min(t.wall_s, timer.seconds());
    t.modeled_s = dev.modeled_time_s();
    count_trial();
  }
  return t;
}

}  // namespace

const char* tuning_policy_name(TuningPolicy policy) {
  switch (policy) {
    case TuningPolicy::kModel: return "model";
    case TuningPolicy::kCached: return "cached";
    case TuningPolicy::kMeasure: return "measure";
  }
  return "?";
}

bool parse_tuning_policy(const std::string& name, TuningPolicy* out) {
  if (name == "model") *out = TuningPolicy::kModel;
  else if (name == "cached") *out = TuningPolicy::kCached;
  else if (name == "measure") *out = TuningPolicy::kMeasure;
  else return false;
  return true;
}

TuningKey make_tuning_key(const TuneInputs& in, const TuningOptions& opts) {
  TuningKey key;
  key.device_digest = digest_device_spec(in.spec);
  key.tensor_digest = digest_tensor_fingerprint(
      *in.tensor, static_cast<std::uint64_t>(in.block_capacity));
  key.rank = static_cast<std::uint64_t>(in.rank);
  DigestBuilder d;
  d.u64(static_cast<std::uint64_t>(in.scatter.strategy))
      .boolean(in.scatter.deterministic)
      .f64(in.scatter.privatization_budget_bytes)
      .u64(opts.seed)
      .u64(opts.best_of)
      .u64(opts.max_sample_nnz)
      .boolean(opts.use_host_clock)
      .f64(opts.tie_break_tolerance);
  key.options_digest = d.value();
  return key;
}

SparseTensor sample_nonzeros(const SparseTensor& x, std::uint64_t max_nnz,
                             std::uint64_t seed) {
  const auto full = static_cast<std::uint64_t>(x.nnz());
  SparseTensor sample(x.dims());
  const int modes = x.num_modes();
  std::vector<index_t> coords(static_cast<std::size_t>(modes));
  if (max_nnz == 0 || full <= max_nnz) {
    sample.reserve(x.nnz());
    for (index_t i = 0; i < x.nnz(); ++i) {
      for (int m = 0; m < modes; ++m) {
        coords[static_cast<std::size_t>(m)] =
            x.indices(m)[static_cast<std::size_t>(i)];
      }
      sample.append(coords, x.values()[static_cast<std::size_t>(i)]);
    }
    return sample;
  }
  // One nonzero per stride bucket with seeded jitter: preserves the index
  // distribution along the storage order (skewed tensors cluster hot rows,
  // so a prefix sample would be badly biased) while staying deterministic.
  Rng rng(seed);
  sample.reserve(static_cast<index_t>(max_nnz));
  for (std::uint64_t b = 0; b < max_nnz; ++b) {
    const std::uint64_t lo = b * full / max_nnz;
    const std::uint64_t hi = std::max<std::uint64_t>((b + 1) * full / max_nnz,
                                                     lo + 1);
    const auto i =
        static_cast<index_t>(lo + rng.uniform_index(hi - lo));
    for (int m = 0; m < modes; ++m) {
      coords[static_cast<std::size_t>(m)] =
          x.indices(m)[static_cast<std::size_t>(i)];
    }
    sample.append(coords, x.values()[static_cast<std::size_t>(i)]);
  }
  return sample;
}

TuningRecord run_tuning_trials(const TuneInputs& in,
                               const TuningOptions& opts) {
  const SparseTensor& full = *in.tensor;
  const int modes = full.num_modes();
  const index_t rank = in.rank;
  const double tol = std::max(0.0, opts.tie_break_tolerance);

  // The sample in the layout training runs: a BLCO tensor at the run's block
  // capacity, with its own sorted-scatter plans shared by every trial.
  const SparseTensor sample =
      sample_nonzeros(full, opts.max_sample_nnz, opts.seed);
  const BlcoTensor blco(sample, in.block_capacity);
  ScatterPlanCache plans;

  // Seeded factor fills: the trials are a fixed function of (tensor, seed).
  Rng rng(opts.seed);
  std::vector<Matrix> factors;
  std::vector<Matrix> outs;
  factors.reserve(static_cast<std::size_t>(modes));
  outs.reserve(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m) {
    Matrix f(full.dim(m), rank);
    f.fill_uniform(rng, 0.0, 1.0);
    factors.push_back(std::move(f));
    outs.emplace_back(full.dim(m), rank);
  }

  auto time_mode = [&](int m, ScatterStrategy s) {
    return time_best_of(in.spec, opts.best_of, [&](simgpu::Device& dev) {
      run_blco_mode(dev, blco, plans, factors, m, s, in.scatter,
                    outs[static_cast<std::size_t>(m)]);
    });
  };
  // One full AO iteration's MTTKRP sequence (every mode in ascending order,
  // the trainer's sweep) with per-mode forced strategies.
  auto time_sweep = [&](const std::vector<ScatterStrategy>& per_mode) {
    return time_best_of(in.spec, opts.best_of, [&](simgpu::Device& dev) {
      for (int m = 0; m < modes; ++m) {
        run_blco_mode(dev, blco, plans, factors, m,
                      per_mode[static_cast<std::size_t>(m)], in.scatter,
                      outs[static_cast<std::size_t>(m)]);
      }
    });
  };

  // Phase 1: per-mode scatter strategy. The model's pick is the prior; a
  // candidate must beat it by more than the tolerance to displace it.
  std::vector<ScatterStrategy> chosen_per_mode;
  std::vector<ScatterStrategy> model_per_mode;
  for (int m = 0; m < modes; ++m) {
    const index_t mode_len = full.dim(m);
    const ScatterStrategy prior =
        model_scatter_pick(in.scatter, mode_len, rank, full.nnz());
    model_per_mode.push_back(prior);
    const std::vector<ScatterStrategy> candidates =
        scatter_candidates(in.scatter, mode_len, rank, full.nnz());
    ScatterStrategy best = candidates.front();
    double best_metric = std::numeric_limits<double>::infinity();
    double prior_metric = std::numeric_limits<double>::infinity();
    for (ScatterStrategy s : candidates) {
      const double metric = rank_metric(time_mode(m, s), opts.use_host_clock);
      if (metric < best_metric) {
        best_metric = metric;
        best = s;
      }
      if (s == prior) prior_metric = metric;
    }
    if (std::isfinite(prior_metric) &&
        prior_metric <= best_metric * (1.0 + tol)) {
      best = prior;  // model prior wins ties
    }
    chosen_per_mode.push_back(best);
  }

  // Phase 2: the whole sweep under the per-mode winners, and under the cost
  // model's configuration for the evidence record — which is also the final
  // prior: if the model's configuration is within tolerance of the winners,
  // it IS the decision (so tuned runs never regress the model path beyond
  // noise).
  TrialTime chosen_time = time_sweep(chosen_per_mode);
  TrialTime model_time = chosen_time;
  if (model_per_mode != chosen_per_mode) {
    model_time = time_sweep(model_per_mode);
    const double chosen_metric = rank_metric(chosen_time, opts.use_host_clock);
    const double model_metric = rank_metric(model_time, opts.use_host_clock);
    if (model_metric <= chosen_metric * (1.0 + tol)) {
      chosen_per_mode = model_per_mode;
      chosen_time = model_time;
    }
  }

  // Phase 3: dynamic-chunk oversubscription, wall-clock only (the roofline
  // does not see chunking, so there is nothing to rank without the host
  // clock). The default wins ties.
  std::uint32_t chosen_chunks = 0;
  if (opts.use_host_clock) {
    const index_t saved = parallel_chunks_per_worker();
    const auto default_chunks =
        static_cast<std::uint32_t>(kParallelChunksPerWorker);
    std::uint32_t best_chunks = default_chunks;
    double best_wall = std::numeric_limits<double>::infinity();
    double default_wall = std::numeric_limits<double>::infinity();
    for (std::uint32_t c : {2u, 4u, 8u}) {
      set_parallel_chunks_per_worker(static_cast<index_t>(c));
      const TrialTime t = time_sweep(chosen_per_mode);
      if (t.wall_s < best_wall) {
        best_wall = t.wall_s;
        best_chunks = c;
      }
      if (c == default_chunks) default_wall = t.wall_s;
    }
    set_parallel_chunks_per_worker(saved);
    chosen_chunks = default_wall <= best_wall * (1.0 + tol) ? default_chunks
                                                            : best_chunks;
  }

  TuningRecord rec;
  rec.scatter_per_mode = chosen_per_mode;
  rec.chunks_per_worker = chosen_chunks;
  rec.measured_best_s = chosen_time.wall_s;
  rec.measured_model_s = model_time.wall_s;
  rec.modeled_best_s = chosen_time.modeled_s;
  rec.modeled_model_s = model_time.modeled_s;
  rec.seed = opts.seed;
  rec.best_of = opts.best_of;
  rec.sample_nnz = static_cast<std::uint64_t>(sample.nnz());
  std::ostringstream prov;
  prov << "micro-trials device=" << in.spec.name << " sample=" << sample.nnz()
       << "/" << full.nnz() << " best_of=" << opts.best_of
       << " clock=" << (opts.use_host_clock ? "host" : "model");
  rec.provenance = prov.str();
  return rec;
}

bool record_applies(const TuningRecord& record, const TuneInputs& in) {
  const SparseTensor& x = *in.tensor;
  if (static_cast<int>(record.scatter_per_mode.size()) != x.num_modes()) {
    return false;
  }
  for (int m = 0; m < x.num_modes(); ++m) {
    const ScatterStrategy s =
        record.scatter_per_mode[static_cast<std::size_t>(m)];
    if (s == ScatterStrategy::kAuto) return false;
    if (in.scatter.deterministic && s == ScatterStrategy::kAtomic) {
      return false;
    }
    if (s == ScatterStrategy::kPrivatized &&
        !privatized_fits(in.scatter, x.dim(m), in.rank, x.nnz())) {
      return false;
    }
  }
  if (record.chunks_per_worker > 64) return false;
  return true;
}

TuningOutcome resolve_tuning(const TuneInputs& in, const TuningOptions& opts) {
  TuningOutcome out;
  out.key = make_tuning_key(in, opts);
  if (opts.policy == TuningPolicy::kModel) return out;

  TuningCache cache(opts.cache_capacity);
  const bool persistent = !opts.cache_path.empty();
  if (persistent) {
    cache = TuningCache::load_or_empty(opts.cache_path, opts.cache_capacity);
  }

  if (opts.policy == TuningPolicy::kCached) {
    const TuningRecord* hit = cache.find(out.key);
    if (hit != nullptr && record_applies(*hit, in)) {
      out.record = *hit;
      out.cache_hit = true;
      out.applied = true;
      if (persistent) cache.save(opts.cache_path);  // persist the LRU bump
      return out;
    }
  }

  out.record = run_tuning_trials(in, opts);
  out.trials_run = true;
  out.applied = true;
  cache.put(out.key, out.record);
  if (persistent) cache.save(opts.cache_path);
  return out;
}

BatcherTuning tune_fold_in_batcher(const BatcherCalibration& cal,
                                   std::uint32_t max_batch_cap,
                                   double max_linger_cap_s) {
  // Defaults mirror FoldInBatcher::Options (64 / 2ms); degenerate
  // calibrations keep them rather than inventing a pick from no evidence.
  BatcherTuning t;
  t.max_batch = max_batch_cap > 0 ? std::min<std::uint32_t>(64, max_batch_cap)
                                  : 64;
  t.linger_s = std::min(0.002, max_linger_cap_s);
  const double c0 = cal.solve_base_s;
  const double c1 = cal.solve_per_row_s;
  if (max_batch_cap == 0 || c0 < 0.0 || c1 < 0.0 || (c0 == 0.0 && c1 == 0.0) ||
      !std::isfinite(c0) || !std::isfinite(c1)) {
    return t;
  }

  auto throughput = [&](std::uint32_t b) {
    const double bd = static_cast<double>(b);
    const double solve = c0 + c1 * bd;
    return solve > 0.0 ? bd / solve : 0.0;
  };
  const double target = 0.95 * throughput(max_batch_cap);
  std::uint32_t batch = max_batch_cap;
  for (std::uint32_t b = 1; b <= max_batch_cap; ++b) {
    if (throughput(b) >= target) {
      batch = b;
      break;
    }
  }
  t.max_batch = batch;
  // Linger just long enough to actually collect the batch at the measured
  // rate; with no measured arrivals there is nothing to wait for.
  if (cal.arrival_rate_rps > 0.0 && batch > 1) {
    t.linger_s = std::min(static_cast<double>(batch - 1) / cal.arrival_rate_rps,
                          max_linger_cap_s);
  } else {
    t.linger_s = 0.0;
  }
  return t;
}

}  // namespace cstf::autotune
