// Repo benchmark driver: one seeded workload through the production entry
// points (CstfFramework -> Auntf::iterate for training; ModelStore::publish,
// FoldInBatcher::submit and QueryEngine::predict/top_k for serving), every
// output checked, one JSON result line on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--train-only] [--work-dir DIR]
//
// Every workload trains a model on a seeded dataset analog and then serves
// it open-loop; the workloads differ in the dataset (which layer dominates
// the AO iteration) and in how the run time splits between the two stages.
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1 reports
// per-layer metrics: the timed training window is split into an untraced
// half and a traced half (simgpu::Tracer attached), so the tracing overhead
// is the difference of their medians. --train-only stops after training and
// reports iter_s_p50 only (run.py uses it under CSTF_THREADS=1 for the
// parallel speed-up).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "cstf/framework.hpp"
#include "formats/blco.hpp"
#include "metrics/registry.hpp"
#include "mttkrp/scatter.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fold_in.hpp"
#include "serve/model_io.hpp"
#include "serve/model_store.hpp"
#include "serve/query_engine.hpp"
#include "serve/runtime.hpp"
#include "simgpu/trace.hpp"
#include "tensor/datasets.hpp"

namespace {

using namespace cstf;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads and fixed protocol constants.

struct Workload {
  const char* name;
  const char* dataset;
  index_t nnz;           ///< analog size handed to make_analog
  double serve_seconds;  ///< open-loop serve stage; training gets the rest
};

// Sizes keep the training window near the workload's share of a 45 s run
// when it times kMinTimedIters iterations (README.md gives the measured
// phase splits).
const Workload kWorkloads[] = {
    {"train-update", "NELL1", 150000, 12.0},
    {"train-mttkrp", "Uber", 1000000, 12.0},
};

// Synthetic open-loop Poisson traffic per request kind (README.md, "Serving
// traffic", says where each rate and shape comes from).
constexpr double kFoldInRps = 400.0;
constexpr double kPredictRps = 300.0;
constexpr double kTopKRps = 150.0;

constexpr index_t kRank = 32;
constexpr int kSetupRepeats = 5;      // set-ups per run; setup_s is the median
constexpr int kWarmupIters = 2;       // untimed: plan compile, first touch
constexpr int kFitIter = 10;          // `fit` is read after this iteration
constexpr double kTailQ = 0.75;       // iter_cpu_s_p75, cstf.iter_s_p75
// Timed iterations an untraced run takes at least, however long they last:
// p75 then always has >= 10 samples beyond it.
constexpr int kMinTimedIters = 40;
// Serve latencies are per-layer metrics, not end-to-end ones: on a 4-vCPU
// host a few percent of requests hit millisecond scheduler stalls whose rate
// follows the host's other load, so p95/p99 moved 0.3-2.4x of their median
// between runs. A predict or top_k takes tens of microseconds, mostly waking
// the pool's workers, and its median moved 30-37% between two sets of runs of
// the same code; the fold-in median spread up to 0.39 on a busier host.
// serve_slo_frac is the end-to-end guard for every request kind.
constexpr double kServeTailQ = 0.95;
constexpr double kServeDeepTailQ = 0.99;
constexpr double kSloLimitS = 0.025;  // serve_slo_frac latency limit
constexpr double kPublishEveryS = 1.0;
constexpr int kPredictBatch = 16;     // coordinates per predict request
constexpr int kTopK = 10;
constexpr int kGeneratorThreads = 2;
// A generator sleeps until this long before a request is due and spins for
// the rest: a plain sleep wakes ~100 us late at the median on a 4-vCPU VM
// (timer slack plus wake-up latency), more than a predict takes.
constexpr double kSpinS = 200e-6;

// Output-check tolerances.
constexpr double kFitRelTol = 1e-8;       // reported fit vs KTensor::fit_to
constexpr double kFoldInResidualMax = 1e-2;  // fold-in primal residual
constexpr double kValueRelTol = 1e-12;    // predict vs reconstruction
constexpr double kScoreRelTol = 1e-9;     // top_k vs brute-force scores

// ---------------------------------------------------------------------------
// Small helpers.

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used so far by every thread of this process. The kernel
/// leaves out time a thread waits to run, including time the hypervisor
/// gives the vCPU to another guest (steal), so on a shared host this clock
/// moves far less with the neighbours' load than wall time does.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Nearest-rank quantile of `v` (sorted copy); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool rel_close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1e-300});
}

/// Ordered metric list printed as {"name": {"value": v, "unit": u}}.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

/// Run-wide outcome tally: attempted operations and failed checks.
struct Tally {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> first_failures;

  void attempt(std::int64_t n = 1) { attempted += n; }
  void fail(const std::string& why) {
    ++failed;
    std::lock_guard<std::mutex> lock(mu);
    if (first_failures.size() < 8) first_failures.push_back(why);
  }
};

/// Sum over the registry instruments named `name` (and labelled `labels`,
/// when given) of their counter value or histogram sum. Registry values are
/// process-cumulative; callers take deltas.
double registry_sum(const metrics::MetricsSnapshot& s, const std::string& name,
                    const metrics::Labels& labels = {}) {
  double t = 0.0;
  for (const auto& inst : s.instruments) {
    if (inst.name != name || (!labels.empty() && inst.labels != labels)) {
      continue;
    }
    t += inst.type == metrics::InstrumentType::kHistogram ? inst.histogram.sum
                                                           : inst.value;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Training stage.

struct TrainWindow {
  std::vector<double> iter_s;     // host wall
  std::vector<double> iter_cpu_s;  // process CPU, all threads
  std::vector<double> modeled_s;
};

/// Per-layer readings over one timed window (deltas of the observers).
struct LayerWindow {
  std::map<std::string, double> wall_phase;     // Auntf::phases()
  std::map<std::string, double> modeled_phase;  // modeled_phase_seconds()
  metrics::MetricsSnapshot registry;
};

LayerWindow read_layers(Auntf& driver) {
  return {driver.phases().totals(), driver.modeled_phase_seconds(),
          metrics::MetricsRegistry::global().snapshot()};
}

double map_delta(const std::map<std::string, double>& a,
                 const std::map<std::string, double>& b,
                 const std::string& key) {
  auto get = [&](const std::map<std::string, double>& m) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  return get(b) - get(a);
}

struct TrainResult {
  double setup_s = 0.0;
  double blco_build_s = 0.0;
  double blco_bytes = 0.0;
  double peak_rss_mb = 0.0;  // process peak once training has run
  TrainWindow plain;   // untraced timed iterations
  TrainWindow traced;  // traced timed iterations (--trace 1 only)
  double fit = 0.0;    // reported by iterate() after kFitIter iterations
  KTensor fit_model;   // model at that point (for the independent fit)
  KTensor final_model;
  // Traced-window readings.
  LayerWindow before, after;
  std::map<std::string, simgpu::Tracer::Aggregate> kernels;
  simgpu::DeviceSpec spec;
  std::string decisions;
};

/// Times iterations for `seconds`, for at least `min_iters` of them, and at
/// least until `fit` is read.
void time_window(Auntf& driver, simgpu::Device& dev, double seconds,
                 int min_iters, int* completed, TrainResult& out,
                 TrainWindow& window) {
  const double t_end = now_s() + seconds;
  while (*completed < kFitIter ||
         static_cast<int>(window.iter_s.size()) < min_iters ||
         now_s() < t_end) {
    // A fresh metering window per iteration: the modeled time is then this
    // iteration's alone, not a difference of two rounded running sums.
    dev.reset();
    const double cpu0 = cpu_s();
    Timer timer;
    const real_t fit = driver.iterate();
    window.iter_s.push_back(timer.seconds());
    window.iter_cpu_s.push_back(cpu_s() - cpu0);
    window.modeled_s.push_back(dev.modeled_time_s());
    if (++*completed == kFitIter) {
      out.fit = fit;
      out.fit_model = driver.ktensor();
    }
  }
}

TrainResult train(const SparseTensor& tensor, std::uint64_t seed,
                  double seconds, int min_iters, bool trace, Tally& tally) {
  TrainResult out;
  FrameworkOptions options;  // defaults: cuADMM, non-negative, A100 model
  options.rank = kRank;
  options.seed = seed;
  out.spec = options.device;

  // formats layer: the BLCO build the framework performs, timed on its own.
  {
    std::vector<double> builds;
    for (int i = 0; i < kSetupRepeats; ++i) {
      Timer t;
      const BlcoTensor blco(tensor, options.blco_block_capacity);
      builds.push_back(t.seconds());
      out.blco_bytes = blco.storage_bytes();
    }
    out.blco_build_s = quantile(builds, 0.5);
  }

  // setup_s: framework construction + initialize(), median of repeats; the
  // last instance trains.
  std::unique_ptr<CstfFramework> fw;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fw.reset();
    Timer t;
    fw = std::make_unique<CstfFramework>(tensor, options);
    fw->driver().initialize();
    setups.push_back(t.seconds());
  }
  out.setup_s = quantile(setups, 0.5);
  Auntf& driver = fw->driver();
  simgpu::Device& dev = fw->device();

  int completed = 0;
  for (int i = 0; i < kWarmupIters; ++i) {
    driver.iterate();
    ++completed;
  }

  if (!trace) {
    time_window(driver, dev, seconds, min_iters, &completed, out, out.plain);
  } else {
    time_window(driver, dev, seconds / 2.0, 0, &completed, out, out.plain);
    simgpu::Tracer tracer;
    dev.set_tracer(&tracer);
    out.before = read_layers(driver);
    time_window(driver, dev, seconds / 2.0, 0, &completed, out, out.traced);
    out.after = read_layers(driver);
    dev.set_tracer(nullptr);
    out.kernels = tracer.per_kernel();
  }
  out.peak_rss_mb = peak_rss_mb();

  // Decisions the run took (printed, not measured).
  char buf[256];
  std::snprintf(buf, sizeof buf, "engine=%s tuning_applied=%d scatter=",
                mttkrp_mode_name(fw->resolved_mttkrp_mode()),
                fw->tuning().applied ? 1 : 0);
  out.decisions = buf;
  for (int m = 0; m < tensor.num_modes(); ++m) {
    out.decisions +=
        std::string(m ? "," : "") +
        scatter_strategy_name(resolve_scatter_strategy_for_mode(
            options.scatter, m, tensor.dim(m), kRank, tensor.nnz()));
  }
  std::snprintf(
      buf, sizeof buf,
      " autotune_trials=%.0f plan_cache_hits=%lld plan_cache_misses=%lld",
      registry_sum(metrics::MetricsRegistry::global().snapshot(),
                   "autotune.trials"),
      static_cast<long long>(driver.plan_cache().hits()),
      static_cast<long long>(driver.plan_cache().misses()));
  out.decisions += buf;

  // Output checks (outside every timed window). Every iteration is an
  // attempted operation; each failed check counts one failure.
  tally.attempt(completed);
  out.final_model = fw->ktensor();
  try {
    out.final_model.validate();
    out.fit_model.validate();
  } catch (const Error& e) {
    tally.fail(std::string("ktensor validate: ") + e.what());
  }
  // Both models are served (the hot-swap alternates them).
  bool nonneg = true;
  for (const KTensor* kt : {&out.final_model, &out.fit_model}) {
    for (const Matrix& f : kt->factors) {
      for (index_t j = 0; j < f.cols(); ++j) {
        const real_t* col = f.col(j);
        for (index_t i = 0; i < f.rows(); ++i) {
          nonneg = nonneg && col[i] >= 0.0;
        }
      }
    }
  }
  if (!nonneg) tally.fail("negative factor entry under non-negativity");
  const double independent_fit = out.fit_model.fit_to(tensor);
  if (!rel_close(out.fit, independent_fit, kFitRelTol)) {
    tally.fail("fit " + std::to_string(out.fit) + " != fit_to " +
               std::to_string(independent_fit));
  }
  // Modeled time per iteration depends only on shapes and the resolved
  // plan, so it must repeat exactly at a fixed thread count.
  for (const TrainWindow* w : {&out.plain, &out.traced}) {
    for (double m : w->modeled_s) {
      if (m != out.plain.modeled_s.front()) {
        tally.fail("iter_modeled_s did not repeat exactly");
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serving stage.

enum class Kind { kFoldIn, kPredict, kTopK };

struct Arrival {
  double due = 0.0;  // seconds after the loop starts
  Kind kind = Kind::kFoldIn;
  int index = 0;     // into the per-kind request arrays
};

struct ServeInputs {
  int fold_mode = 0;  // longest mode
  std::vector<serve::FoldInRequest> fold_ins;
  std::vector<std::vector<index_t>> predicts;  // kPredictBatch tuples each
  std::vector<std::vector<index_t>> topks;     // one partial coordinate each
  std::vector<Arrival> schedule;
};

ServeInputs make_serve_inputs(const KTensor& model, double seconds,
                              std::uint64_t seed) {
  ServeInputs in;
  const int modes = model.num_modes();
  for (int m = 1; m < modes; ++m) {
    if (model.factors[static_cast<std::size_t>(m)].rows() >
        model.factors[static_cast<std::size_t>(in.fold_mode)].rows()) {
      in.fold_mode = m;
    }
  }
  Rng rng(seed ^ 0x5e27e5eedULL);
  auto coord = [&](int m) {
    return static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(
        model.factors[static_cast<std::size_t>(m)].rows())));
  };
  // Poisson arrivals per kind: exponential gaps at the kind's mean rate.
  auto add_kind = [&](Kind kind, double rps) {
    double due = 0.0;
    for (int i = 0;; ++i) {
      due += -std::log(1.0 - rng.uniform()) / rps;
      if (due >= seconds) break;
      in.schedule.push_back({due, kind, i});
      if (kind == Kind::kFoldIn) {
        serve::FoldInRequest req;
        req.mode = in.fold_mode;
        const int nnz = 4 + static_cast<int>(rng.uniform_index(12));
        for (int j = 0; j < nnz; ++j) {
          for (int m = 0; m < modes; ++m) {
            if (m != in.fold_mode) req.coords.push_back(coord(m));
          }
          req.values.push_back(rng.uniform(0.0, 2.0));
        }
        in.fold_ins.push_back(std::move(req));
      } else if (kind == Kind::kPredict) {
        std::vector<index_t> c;
        for (int b = 0; b < kPredictBatch; ++b) {
          for (int m = 0; m < modes; ++m) c.push_back(coord(m));
        }
        in.predicts.push_back(std::move(c));
      } else {
        std::vector<index_t> c;
        for (int m = 0; m < modes; ++m) c.push_back(coord(m));
        in.topks.push_back(std::move(c));
      }
    }
  };
  add_kind(Kind::kFoldIn, kFoldInRps);
  add_kind(Kind::kPredict, kPredictRps);
  add_kind(Kind::kTopK, kTopKRps);
  std::sort(in.schedule.begin(), in.schedule.end(),
            [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  return in;
}

struct ServeResult {
  double setup_s = 0.0;  // median model load + publish
  double model_load_s = 0.0;
  double publish_s = 0.0;  // median hot-swap publish during the loop
  std::vector<double> fold_in_s, predict_s, topk_s;  // from due time
  std::vector<double> gen_lag_s;
  std::int64_t sent = 0;
  std::int64_t within_slo = 0;
  double batch_size_mean = 0.0;
  double solve_s_p50 = 0.0;
  double solve_s_mean = 0.0;
  serve::ReliabilitySnapshot reliability;
};

/// A predict or top_k answer kept for the post-loop check; it counts toward
/// serve_slo_frac only once the check has passed.
struct QueryRecord {
  std::uint64_t generation = 0;
  int index = 0;
  double latency_s = 0.0;  // from due time
  std::vector<real_t> values;             // predict
  std::vector<serve::ScoredEntry> top;    // top_k
};

serve::SavedModel saved_from(const KTensor& model, const std::string& name,
                             real_t fit, std::uint64_t seed) {
  serve::SavedModel saved;
  saved.model = model;
  saved.meta.name = name;
  saved.meta.set_constraint(Proximity::non_negative());
  saved.meta.final_fit = fit;
  saved.meta.seed = seed;
  return saved;
}

bool check_predict(const QueryRecord& r, const ServeInputs& in,
                   const KTensor& kt) {
  const std::vector<index_t>& c =
      in.predicts[static_cast<std::size_t>(r.index)];
  const auto modes = static_cast<std::size_t>(kt.num_modes());
  bool ok = r.values.size() == c.size() / modes;
  for (std::size_t b = 0; ok && b < r.values.size(); ++b) {
    ok = rel_close(r.values[b], kt.value_at(c.data() + b * modes),
                   kValueRelTol);
  }
  return ok;
}

/// Brute-force scoring of every row of the target mode.
bool check_topk(const QueryRecord& r, const ServeInputs& in,
                const KTensor& kt) {
  std::vector<index_t> c = in.topks[static_cast<std::size_t>(r.index)];
  const index_t rows =
      kt.factors[static_cast<std::size_t>(in.fold_mode)].rows();
  std::vector<double> scores(static_cast<std::size_t>(rows));
  for (index_t i = 0; i < rows; ++i) {
    c[static_cast<std::size_t>(in.fold_mode)] = i;
    scores[static_cast<std::size_t>(i)] = kt.value_at(c.data());
  }
  std::vector<double> sorted = scores;
  std::nth_element(sorted.begin(), sorted.begin() + (kTopK - 1),
                   sorted.end(), std::greater<>());
  const double kth = sorted[kTopK - 1];
  if (static_cast<int>(r.top.size()) != kTopK) return false;
  std::vector<index_t> seen;
  for (std::size_t j = 0; j < r.top.size(); ++j) {
    const index_t i = r.top[j].index;
    if (i < 0 || i >= rows) return false;
    seen.push_back(i);
    if (!rel_close(r.top[j].score, scores[static_cast<std::size_t>(i)],
                   kScoreRelTol) ||
        (j > 0 && r.top[j].score > r.top[j - 1].score)) {
      return false;
    }
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return false;  // a row returned twice
  }
  return r.top.back().score >= kth - kScoreRelTol * std::abs(kth);
}

/// Checks every kept answer against the model its snapshot served, spread
/// over the host's cores; returns how many passed within the SLO limit and
/// counts each miss as a failed operation.
std::int64_t check_queries(const std::vector<QueryRecord>& records, Kind kind,
                           const ServeInputs& in,
                           const std::map<std::uint64_t, const KTensor*>& by_gen,
                           Tally& tally) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> within_slo{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < records.size(); i = next++) {
      const QueryRecord& r = records[i];
      auto it = by_gen.find(r.generation);
      const bool ok =
          it != by_gen.end() && (kind == Kind::kPredict
                                     ? check_predict(r, in, *it->second)
                                     : check_topk(r, in, *it->second));
      if (!ok) {
        tally.fail(kind == Kind::kPredict
                       ? "predict differs from the snapshot reconstruction"
                       : "top_k differs from brute-force scoring");
      } else if (r.latency_s <= kSloLimitS) {
        ++within_slo;
      }
    }
  };
  std::vector<std::thread> workers;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < n; ++t) workers.emplace_back(worker);
  for (std::thread& t : workers) t.join();
  return within_slo;
}

ServeResult serve_stage(const Workload& w, const KTensor& model_a,
                        const KTensor& model_b, real_t fit,
                        std::uint64_t seed, const std::string& work_dir,
                        Tally& tally) {
  ServeResult out;
  const std::string name = w.dataset;
  const serve::SavedModel saved_a = saved_from(model_a, name, fit, seed);
  const serve::SavedModel saved_b = saved_from(model_b, name, fit, seed);
  const std::string path = work_dir + "/model.cstf";
  serve::save_model(saved_a, path);

  serve::ModelStore store;
  std::mutex gen_mu;
  std::map<std::uint64_t, const KTensor*> by_gen;

  // Setup: load + publish, median of repeats (the last publish serves).
  std::vector<double> setups, loads;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Timer t;
    serve::SavedModel loaded = serve::load_model(path);
    loads.push_back(t.seconds());
    const serve::ServableModelPtr snap = store.publish(std::move(loaded));
    setups.push_back(t.seconds());
    by_gen[snap->generation()] = &model_a;
  }
  out.setup_s = quantile(setups, 0.5);
  out.model_load_s = quantile(loads, 0.5);
  std::filesystem::remove(path);

  const ServeInputs in = make_serve_inputs(model_a, w.serve_seconds, seed);
  simgpu::Device device(simgpu::a100());
  serve::ServeRuntime runtime(device, global_pool());
  serve::QueryEngine queries(runtime);
  serve::FoldInEngine engine(runtime);
  serve::FoldInBatcher batcher(engine, store, name);

  struct Pending {
    double due;
    std::future<serve::FoldInResult> future;
  };
  std::mutex pending_mu;
  std::condition_variable pending_cv;
  std::deque<Pending> pending;
  bool generators_done = false;

  std::mutex rec_mu;
  std::vector<double> lags;
  std::vector<QueryRecord> predict_records, topk_records;
  std::int64_t fold_ins_within_slo = 0;  // checked inline by the waiter

  const double start = now_s() + 0.01;

  // Completion waiter: the batcher resolves futures in queue order, so
  // waiting in submission order stamps each completion promptly.
  std::thread waiter([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(pending_mu);
        pending_cv.wait(lock,
                        [&] { return !pending.empty() || generators_done; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      p.future.wait();
      const double latency = now_s() - start - p.due;
      try {
        const serve::FoldInResult r = p.future.get();
        bool ok = static_cast<index_t>(r.row.size()) == kRank &&
                  r.diagnostics.primal_residual <= kFoldInResidualMax;
        for (real_t v : r.row) ok = ok && std::isfinite(v) && v >= 0.0;
        if (!ok) {
          tally.fail("fold-in row infeasible or residual " +
                     std::to_string(r.diagnostics.primal_residual));
          continue;
        }
        std::lock_guard<std::mutex> lock(rec_mu);
        out.fold_in_s.push_back(latency);
        if (latency <= kSloLimitS) ++fold_ins_within_slo;
      } catch (const std::exception& e) {
        tally.fail(std::string("fold-in: ") + e.what());
      }
    }
  });

  auto generator = [&](int g) {
    for (std::size_t i = static_cast<std::size_t>(g); i < in.schedule.size();
         i += kGeneratorThreads) {
      const Arrival& a = in.schedule[i];
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(start + a.due - kSpinS))));
      while (now_s() < start + a.due) {
      }
      const double lag = now_s() - start - a.due;
      {
        std::lock_guard<std::mutex> lock(rec_mu);
        lags.push_back(lag);
      }
      try {
        if (a.kind == Kind::kFoldIn) {
          std::future<serve::FoldInResult> f = batcher.submit(
              in.fold_ins[static_cast<std::size_t>(a.index)]);
          std::lock_guard<std::mutex> lock(pending_mu);
          pending.push_back({a.due, std::move(f)});
          pending_cv.notify_one();
          continue;
        }
        const serve::ServableModelPtr snap = store.get(name);
        if (snap == nullptr) throw Error("model missing from the store");
        QueryRecord rec;
        rec.generation = snap->generation();
        rec.index = a.index;
        if (a.kind == Kind::kPredict) {
          rec.values = queries.predict(
              *snap, in.predicts[static_cast<std::size_t>(a.index)]);
        } else {
          const std::vector<serve::ScoredEntry> top = queries.top_k(
              *snap, in.fold_mode,
              in.topks[static_cast<std::size_t>(a.index)], kTopK);
          // Copied: the returned vector keeps capacity for every row of the
          // target mode; retaining it would count the benchmark's own
          // bookkeeping in peak_rss_mb.
          rec.top.assign(top.begin(), top.end());
        }
        rec.latency_s = now_s() - start - a.due;
        std::lock_guard<std::mutex> lock(rec_mu);
        if (a.kind == Kind::kPredict) {
          out.predict_s.push_back(rec.latency_s);
          predict_records.push_back(std::move(rec));
        } else {
          out.topk_s.push_back(rec.latency_s);
          topk_records.push_back(std::move(rec));
        }
      } catch (const std::exception& e) {
        tally.fail(std::string("query: ") + e.what());
      }
    }
  };

  // Hot-swap publisher: alternates the two models beside the reads.
  std::atomic<bool> stop_publisher{false};
  std::vector<double> publishes;
  std::thread publisher([&] {
    for (int k = 1; !stop_publisher; ++k) {
      const double due = start + k * kPublishEveryS;
      while (!stop_publisher && now_s() < due) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (stop_publisher) return;
      const KTensor* source = (k % 2) ? &model_b : &model_a;
      // Building a snapshot's caches runs on the global pool, which takes
      // one caller at a time; the runtime contract is to hold submit_mu
      // around pool work, so the swap queues behind in-flight queries.
      try {
        Timer t;
        serve::ServableModelPtr snap;
        {
          std::lock_guard<std::mutex> submit(runtime.submit_mu);
          snap = store.publish((k % 2) ? saved_b : saved_a);
        }
        publishes.push_back(t.seconds());
        std::lock_guard<std::mutex> lock(gen_mu);
        by_gen[snap->generation()] = source;
      } catch (const std::exception& e) {
        tally.fail(std::string("publish: ") + e.what());
      }
    }
  });

  std::vector<std::thread> generators;
  for (int g = 0; g < kGeneratorThreads; ++g) generators.emplace_back(generator, g);
  for (std::thread& t : generators) t.join();
  stop_publisher = true;
  publisher.join();
  {
    std::lock_guard<std::mutex> lock(pending_mu);
    generators_done = true;
  }
  pending_cv.notify_all();
  waiter.join();
  // FoldInBatcher updates batch_sizes_ and reliability_ after resolving a
  // future, so read them only once the collector has stopped.
  batcher.stop();

  out.sent = static_cast<std::int64_t>(in.schedule.size());
  tally.attempt(out.sent);
  out.gen_lag_s = std::move(lags);
  out.publish_s = quantile(publishes, 0.5);
  out.batch_size_mean = batcher.batch_sizes().mean_batch_size();
  out.solve_s_p50 = engine.latency().quantile(0.5);
  out.solve_s_mean = engine.latency().summary().mean_s;
  out.reliability = batcher.reliability().snapshot();

  out.within_slo =
      fold_ins_within_slo +
      check_queries(predict_records, Kind::kPredict, in, by_gen, tally) +
      check_queries(topk_records, Kind::kTopK, in, by_gen, tally);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

/// Wall time and stats summed over the traced kernels `pick` selects.
struct KernelSum {
  double wall_s = 0.0;
  simgpu::KernelStats stats;
};

template <typename Pick>
KernelSum sum_kernels(const std::map<std::string, simgpu::Tracer::Aggregate>& k,
                      Pick pick) {
  KernelSum sum;
  for (const auto& [name, agg] : k) {
    if (!pick(name)) continue;
    sum.wall_s += agg.wall_s;
    sum.stats += agg.stats;
  }
  return sum;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

void report_layers(const TrainResult& tr, const ServeResult& sr,
                   Metrics& m) {
  const auto iters = static_cast<double>(tr.traced.iter_s.size());
  const LayerWindow& a = tr.before;
  const LayerWindow& b = tr.after;
  auto registry_delta = [&](const std::string& name,
                            const metrics::Labels& labels = {}) {
    return registry_sum(b.registry, name, labels) -
           registry_sum(a.registry, name, labels);
  };

  // cstf: per-phase wall and modeled seconds per iteration.
  auto wall = [&](const char* phase) {
    return map_delta(a.wall_phase, b.wall_phase, phase);
  };
  auto modeled = [&](const char* phase) {
    return map_delta(a.modeled_phase, b.modeled_phase, phase);
  };
  // Host wall seconds per iteration, from the untraced half of the window.
  m.add("cstf.iter_s_p50", quantile(tr.plain.iter_s, 0.5), "s");
  m.add("cstf.iter_s_p75", quantile(tr.plain.iter_s, kTailQ), "s");
  m.add("cstf.update_s", wall(phase::kUpdate) / iters, "s");
  m.add("cstf.mttkrp_s", wall(phase::kMttkrp) / iters, "s");
  m.add("cstf.gram_s", wall(phase::kGram) / iters, "s");
  m.add("cstf.normalize_s", wall(phase::kNormalize) / iters, "s");
  // Phase shares of iteration wall time: the split the workloads are built
  // around (UPDATE-bound NELL1, MTTKRP-bound Uber).
  double iter_wall = 0.0;
  for (double s : tr.traced.iter_s) iter_wall += s;
  m.add("cstf.update_share", wall(phase::kUpdate) / iter_wall, "ratio");
  m.add("cstf.mttkrp_share", wall(phase::kMttkrp) / iter_wall, "ratio");
  m.add("cstf.update_modeled_s", modeled(phase::kUpdate) / iters, "s");
  m.add("cstf.mttkrp_modeled_s", modeled(phase::kMttkrp) / iters, "s");

  // updates: the ADMM kernels (record-only spans carry no wall time).
  {
    const KernelSum admm = sum_kernels(
        tr.kernels, [](const std::string& n) { return starts_with(n, "admm_"); });
    m.add("updates.admm_s", admm.wall_s / iters, "s");
    m.add("updates.admm_launches",
          static_cast<double>(admm.stats.launches) / iters, "count");
    m.add("updates.admm_bytes", admm.stats.total_bytes() / iters, "bytes");
  }

  // la: dense kernels behind the update and Gram phases.
  {
    const KernelSum gemm = sum_kernels(
        tr.kernels, [](const std::string& n) { return n == "dgemm"; });
    const KernelSum chol = sum_kernels(tr.kernels, [](const std::string& n) {
      return n == "dpotrf" || n == "dpotri";
    });
    const KernelSum syrk = sum_kernels(
        tr.kernels, [](const std::string& n) { return n == "dsyrk"; });
    m.add("la.gemm_s", gemm.wall_s / iters, "s");
    m.add("la.gemm_gflops",
          gemm.wall_s > 0.0 ? gemm.stats.flops / gemm.wall_s / 1e9 : 0.0,
          "GFLOP/s");
    m.add("la.chol_s", chol.wall_s / iters, "s");
    m.add("la.syrk_s", syrk.wall_s / iters, "s");
  }

  // mttkrp: kernels, reduction, computed traffic, scatter-plan cache.
  {
    constexpr const char* kReduce = "mttkrp_blco_reduce";
    const KernelSum kern = sum_kernels(tr.kernels, [](const std::string& n) {
      return (starts_with(n, "mttkrp_") || starts_with(n, "dimtree_")) &&
             n != kReduce;
    });
    const KernelSum red = sum_kernels(
        tr.kernels, [](const std::string& n) { return n == kReduce; });
    simgpu::KernelStats all = kern.stats;
    all += red.stats;
    m.add("mttkrp.kernel_s", kern.wall_s / iters, "s");
    m.add("mttkrp.reduce_s", red.wall_s / iters, "s");
    m.add("mttkrp.bytes", all.total_bytes() / iters, "bytes");
    m.add("mttkrp.atomic_ops", all.atomic_ops / iters, "count");
    const double hits = registry_delta("mttkrp.scatter_cache.hits");
    const double misses = registry_delta("mttkrp.scatter_cache.misses");
    // Only the sorted scatter consults the plan cache; the ratio's base is
    // its lookup count (0 when every mode resolved to another strategy).
    m.add("mttkrp.scatter_cache_lookups", (hits + misses) / iters, "count");
    m.add("mttkrp.scatter_cache_hit_ratio",
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  }

  m.add("formats.blco_build_s", tr.blco_build_s, "s");
  m.add("formats.blco_bytes", tr.blco_bytes, "bytes");

  // exec: per-op-kind time, dispatch overhead, plan cache.
  for (const char* kind : {"mttkrp", "update", "gram", "hadamard", "normalize",
                           "fit"}) {
    m.add(std::string("exec.op_s.") + kind,
          registry_delta("exec.op.duration", {{"kind", kind}}) / iters,
          "s");
  }
  {
    const double ops = registry_delta("exec.op.duration");
    m.add("exec.dispatch_s", (iter_wall - ops) / iters, "s");
    const double hits = registry_delta("exec.plan_cache.hits");
    const double misses = registry_delta("exec.plan_cache.misses");
    m.add("exec.plan_cache_hit_ratio",
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  }

  // simgpu: launches and bytes per iteration, launch-overhead share.
  {
    simgpu::KernelStats total;
    double modeled = 0.0;
    for (const auto& [name, agg] : tr.kernels) {
      total += agg.stats;
      modeled += agg.modeled_s;
    }
    m.add("simgpu.launches", static_cast<double>(total.launches) / iters,
          "count");
    m.add("simgpu.bytes", total.total_bytes() / iters, "bytes");
    m.add("simgpu.launch_share",
          modeled > 0.0 ? static_cast<double>(total.launches) *
                              tr.spec.launch_overhead / modeled
                        : 0.0,
          "ratio");
  }

  // serve: batcher and engine recorders (read after stop()).
  m.add("serve.batch_size_mean", sr.batch_size_mean, "count");
  m.add("serve.solve_s_p50", sr.solve_s_p50, "s");
  m.add("serve.wait_s_mean", mean(sr.fold_in_s) - sr.solve_s_mean,
        "s");
  m.add("serve.publish_s", sr.publish_s, "s");
  m.add("serve.peak_rss_mb", peak_rss_mb(), "MB");
  m.add("serve.model_load_s", sr.model_load_s, "s");
  m.add("serve.shed", static_cast<double>(sr.reliability.shed), "count");
  m.add("serve.timed_out", static_cast<double>(sr.reliability.timed_out),
        "count");
  m.add("serve.retried", static_cast<double>(sr.reliability.retries), "count");
  m.add("serve.gen_lag_s_p99", quantile(sr.gen_lag_s, kServeDeepTailQ), "s");
  m.add("serve.fold_in_s_p50", quantile(sr.fold_in_s, 0.5), "s");
  m.add("serve.predict_s_p50", quantile(sr.predict_s, 0.5), "s");
  m.add("serve.topk_s_p50", quantile(sr.topk_s, 0.5), "s");
  for (const auto& [kind, v] :
       {std::pair{"fold_in", &sr.fold_in_s}, std::pair{"predict", &sr.predict_s},
        std::pair{"topk", &sr.topk_s}}) {
    m.add(std::string("serve.") + kind + "_s_p95", quantile(*v, kServeTailQ),
          "s");
    m.add(std::string("serve.") + kind + "_s_p99",
          quantile(*v, kServeDeepTailQ), "s");
  }

  m.add("trace.overhead_s", quantile(tr.traced.iter_s, 0.5) -
                                quantile(tr.plain.iter_s, 0.5),
        "s");
}

void report_end_to_end(const TrainResult& tr, const ServeResult& sr,
                       Metrics& m) {
  m.add("iter_cpu_s_p50", quantile(tr.plain.iter_cpu_s, 0.5), "s");
  m.add("iter_cpu_s_p75", quantile(tr.plain.iter_cpu_s, kTailQ), "s");
  m.add("iter_modeled_s", tr.plain.modeled_s.front(), "s");
  m.add("fit", tr.fit, "ratio");
  m.add("setup_s", tr.setup_s + sr.setup_s, "s");
  // Training only: serving added 12-33 MB that differed between runs of one
  // seed, with the timing of its threads (probably in which of the C
  // library's per-thread arenas their allocations land); serve.peak_rss_mb
  // reports the whole run.
  m.add("peak_rss_mb", tr.peak_rss_mb, "MB");
  m.add("serve_slo_frac",
        sr.sent > 0 ? static_cast<double>(sr.within_slo) /
                          static_cast<double>(sr.sent)
                    : 0.0,
        "ratio");
}

void print_result(const Tally& tally, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted.load());
  out += ", \"failed\": " + std::to_string(tally.failed.load());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--train-only] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, work_dir = ".";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  bool train_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") workload_name = value();
    else if (arg == "--seed") seed = std::atoll(value().c_str());
    else if (arg == "--seconds") seconds = std::atof(value().c_str());
    else if (arg == "--trace") trace = std::atoi(value().c_str());
    else if (arg == "--train-only") train_only = true;
    else if (arg == "--work-dir") work_dir = value();
    else usage(("unknown argument: " + arg).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload_name == c.name) w = &c;
  }
  if (w == nullptr) usage("unknown --workload");
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    usage("--seed, --seconds and --trace 0|1 are required");
  }
  if (!train_only && seconds <= w->serve_seconds) {
    usage("--seconds must exceed the workload's serve stage");
  }

  try {
    // Seeded input: the dataset spec with the seed overridden.
    DatasetSpec spec = dataset_by_name(w->dataset);
    spec.seed = static_cast<std::uint64_t>(seed);
    const DatasetAnalog analog = make_analog(spec, w->nnz);
    std::fprintf(stderr, "perfbench: %s %s analog %s, threads %zu\n", w->name,
                 w->dataset, analog.tensor.shape_string().c_str(),
                 global_pool().num_threads());

    Tally tally;
    Timer stage;
    const double train_seconds =
        train_only ? seconds : seconds - w->serve_seconds;
    TrainResult tr = train(analog.tensor, static_cast<std::uint64_t>(seed),
                           train_seconds, train_only ? 0 : kMinTimedIters,
                           trace == 1 && !train_only, tally);
    std::fprintf(stderr,
                 "perfbench: train stage %.1f s, %zu timed iterations, "
                 "untraced p50 %.4f s wall %.4f s CPU, peak RSS %.1f MB\n",
                 stage.seconds(),
                 tr.plain.iter_s.size() + tr.traced.iter_s.size(),
                 quantile(tr.plain.iter_s, 0.5),
                 quantile(tr.plain.iter_cpu_s, 0.5), peak_rss_mb());
    std::fprintf(stderr, "perfbench: decisions %s\n", tr.decisions.c_str());
    Metrics metrics;
    if (train_only) {
      metrics.add("iter_s_p50", quantile(tr.plain.iter_s, 0.5), "s");
    } else {
      stage.reset();
      const ServeResult sr =
          serve_stage(*w, tr.final_model, tr.fit_model, tr.fit,
                      static_cast<std::uint64_t>(seed), work_dir, tally);
      std::fprintf(stderr,
                   "perfbench: serve stage %.1f s, %lld requests, peak RSS "
                   "%.1f MB\n",
                   stage.seconds(), static_cast<long long>(sr.sent),
                   peak_rss_mb());
      if (trace == 1) {
        report_layers(tr, sr, metrics);
        // run.py needs the untraced median for the parallel speed-up.
        metrics.add("untraced_iter_s_p50", quantile(tr.plain.iter_s, 0.5),
                    "s");
      } else {
        report_end_to_end(tr, sr, metrics);
      }
    }
    {
      std::lock_guard<std::mutex> lock(tally.mu);
      for (const std::string& f : tally.first_failures) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
      }
    }
    print_result(tally, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
