// Execution-graph layer tests: OpGraph/Plan validation and analysis, the
// Executor's stream/event realization against hand-rolled choreography,
// plan-cache invalidation across the trainer / streaming / serving paths,
// and the stability of the persisted options digests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/random.hpp"
#include "cstf/checkpoint.hpp"
#include "cstf/framework.hpp"
#include "exec/executor.hpp"
#include "exec/op_graph.hpp"
#include "exec/planner.hpp"
#include "serve/fold_in.hpp"
#include "serve/model_io.hpp"
#include "serve/model_store.hpp"
#include "serve/query_engine.hpp"
#include "serve/runtime.hpp"
#include "simgpu/device.hpp"
#include "streaming/streaming_cstf.hpp"
#include "tensor/coo.hpp"

namespace cstf {
namespace {

using exec::ExecContext;
using exec::Op;
using exec::OpGraph;
using exec::OpKind;
using exec::Plan;
using exec::PlanCache;
using exec::PlanKey;

void noop(ExecContext&) {}

Op make_op(const std::string& name, int lane, std::vector<int> deps) {
  Op op;
  op.name = name;
  op.lane = lane;
  op.deps = std::move(deps);
  op.run = noop;
  return op;
}

SparseTensor small_tensor(std::uint64_t seed = 7, index_t nnz = 60) {
  SparseTensor t({12, 10, 8});
  Rng rng(seed);
  for (index_t i = 0; i < nnz; ++i) {
    const index_t coords[3] = {
        static_cast<index_t>(rng.uniform_index(12)),
        static_cast<index_t>(rng.uniform_index(10)),
        static_cast<index_t>(rng.uniform_index(8))};
    t.append(coords, static_cast<real_t>(rng.uniform(0.1, 1.0)));
  }
  return t;
}

// ---------------------------------------------------------------------------
// OpGraph / Plan structural analysis.

TEST(OpGraph, RejectsForwardDepsBadBuffersAndBodylessOps) {
  OpGraph g;
  const int buf = g.add_buffer("b", 64.0);

  EXPECT_THROW(g.add_op(make_op("forward_dep", 0, {0})), Error);
  {
    Op op = make_op("bad_buffer", 0, {});
    op.reads = {buf + 1};
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  {
    Op op = make_op("no_body", 0, {});
    op.run = nullptr;
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  // A checkpoint barrier is a structural marker: no body required.
  {
    Op op = make_op("barrier", 0, {});
    op.kind = OpKind::kCheckpointBarrier;
    op.run = nullptr;
    EXPECT_EQ(g.add_op(std::move(op)), 0);
  }
  // Fixed-duration spans need no body either.
  {
    Op op = make_op("fixed", 0, {});
    op.run = nullptr;
    op.fixed_s = 0.5;
    EXPECT_EQ(g.add_op(std::move(op)), 1);
  }
}

TEST(Plan, DerivesLifetimesPeakAndEventNeeds) {
  OpGraph g;
  const int a = g.add_buffer("a", 100.0);
  const int b = g.add_buffer("b", 60.0);
  const int unused = g.add_buffer("unused", 1000.0);
  (void)unused;

  {
    Op op = make_op("produce_a", 0, {});
    op.writes = {a};
    g.add_op(std::move(op));
  }
  {
    Op op = make_op("side_lane", 1, {0});  // cross-lane dependent of op 0
    op.reads = {a};
    op.writes = {b};
    g.add_op(std::move(op));
  }
  {
    Op op = make_op("consume", 0, {1});
    op.reads = {b};
    g.add_op(std::move(op));
  }

  const Plan plan(std::move(g), {"default", "side"});
  ASSERT_EQ(plan.lifetimes().size(), 3u);
  EXPECT_EQ(plan.lifetimes()[0].first_use, 0);
  EXPECT_EQ(plan.lifetimes()[0].last_use, 1);
  EXPECT_EQ(plan.lifetimes()[1].first_use, 1);
  EXPECT_EQ(plan.lifetimes()[1].last_use, 2);
  EXPECT_EQ(plan.lifetimes()[2].first_use, -1);  // never touched

  // a and b are both live at op 1: peak is their sum (the unused buffer does
  // not contribute).
  EXPECT_DOUBLE_EQ(plan.peak_bytes(), 160.0);

  // Op 0 has a dependent on lane 1 -> event; op 1's dependent is cross-lane
  // too (lane 1 -> lane 0); op 2 has no dependents.
  EXPECT_TRUE(plan.needs_event(0));
  EXPECT_TRUE(plan.needs_event(1));
  EXPECT_FALSE(plan.needs_event(2));

  const std::string dump = plan.describe();
  EXPECT_NE(dump.find("produce_a"), std::string::npos);
  EXPECT_NE(dump.find("(event)"), std::string::npos);
  EXPECT_NE(dump.find("peak modeled device bytes"), std::string::npos);
}

TEST(Plan, RequiresDefaultLaneFirst) {
  OpGraph g;
  g.add_op(make_op("only", 0, {}));
  EXPECT_THROW(Plan(std::move(g), {"gram"}), Error);
}

// ---------------------------------------------------------------------------
// Executor vs hand-rolled stream choreography.

TEST(Executor, FixedPipelineMatchesHandRolledMakespan) {
  std::vector<exec::FixedModePhases> modes(3);
  for (std::size_t m = 0; m < modes.size(); ++m) {
    modes[m].gram_s = 0.004 + 0.001 * static_cast<double>(m);
    modes[m].mttkrp_s = 0.010;
    modes[m].update_s = 0.006;
    modes[m].normalize_s = 0.001;
  }

  // Hand-rolled: the overlap choreography the benches used to carry inline.
  simgpu::Device legacy(simgpu::a100());
  {
    const simgpu::Stream gram_stream = legacy.create_stream("gram");
    simgpu::Event prev_normalize;
    for (const exec::FixedModePhases& m : modes) {
      legacy.wait_event(gram_stream, prev_normalize);
      legacy.record_fixed("gram", m.gram_s, gram_stream);
      const simgpu::Event gram_done = legacy.record_event(gram_stream);
      legacy.record_fixed("mttkrp", m.mttkrp_s);
      legacy.wait_event(simgpu::Stream{}, gram_done);
      legacy.record_fixed("update", m.update_s);
      legacy.record_fixed("normalize", m.normalize_s);
      prev_normalize = legacy.record_event(simgpu::Stream{});
    }
  }

  simgpu::Device planned(simgpu::a100());
  exec::Executor executor(
      planned, std::make_shared<const Plan>(
                   exec::Planner::compile_fixed_pipeline(modes)));
  executor.run();

  EXPECT_TRUE(planned.timeline().concurrent());
  EXPECT_DOUBLE_EQ(planned.modeled_makespan_s(), legacy.modeled_makespan_s());
}

TEST(Executor, ChunkedAllReduceOverlapsCommunication) {
  exec::ChunkedAllReduceSpec spec;
  spec.shard_compute_s = {0.010, 0.012};
  spec.chunk_comm_s = 0.004;
  spec.chunks = 1;

  const auto makespan = [](const exec::ChunkedAllReduceSpec& s) {
    simgpu::Device dev(simgpu::a100());
    exec::Executor ex(dev, std::make_shared<const Plan>(
                               exec::Planner::compile_chunked_allreduce(s)));
    ex.run();
    return dev.modeled_makespan_s();
  };

  const double serial = makespan(spec);
  // One chunk: compute then communicate, no overlap.
  EXPECT_NEAR(serial, 0.012 + 0.004, 1e-12);

  spec.chunks = 4;
  spec.chunk_comm_s = 0.001;  // same total communication, 4 chunks
  const double overlapped = makespan(spec);
  EXPECT_LT(overlapped, serial);
  // Lower bound: the slowest shard's compute plus one trailing chunk comm.
  EXPECT_GE(overlapped, 0.012 + 0.001 - 1e-12);
}

TEST(Executor, RunsObserverHooksInIssueOrder) {
  OpGraph g;
  Op op1 = make_op("first", 0, {});
  op1.fixed_s = 0.001;
  op1.run = nullptr;
  g.add_op(std::move(op1));
  Op op2 = make_op("second", 0, {0});
  op2.fixed_s = 0.001;
  op2.run = nullptr;
  g.add_op(std::move(op2));

  class Recorder final : public exec::OpObserver {
   public:
    void on_op_begin(const Op& op, int index) override {
      names.push_back("begin:" + op.name);
      indices.push_back(index);
    }
    void on_op_end(const Op& op, int) override {
      names.push_back("end:" + op.name);
    }
    std::vector<std::string> names;
    std::vector<int> indices;
  };

  simgpu::Device dev(simgpu::a100());
  exec::Executor executor(
      dev, std::make_shared<const Plan>(Plan(std::move(g), {"default"})));
  Recorder recorder;
  executor.run(&recorder);
  ASSERT_EQ(recorder.names.size(), 4u);
  EXPECT_EQ(recorder.names[0], "begin:first");
  EXPECT_EQ(recorder.names[1], "end:first");
  EXPECT_EQ(recorder.names[2], "begin:second");
  EXPECT_EQ(recorder.names[3], "end:second");
  EXPECT_EQ(recorder.indices, (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// Plan-cache invalidation.

TEST(PlanCacheTest, HitsOnSameKeyRecompilesOnAnyFieldChange) {
  PlanCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    OpGraph g;
    g.add_op(make_op("op", 0, {}));
    return Plan(std::move(g), {"default"});
  };

  PlanKey key{1, 8, 42};
  EXPECT_FALSE(cache.cached());
  auto first = cache.get(key, build);
  auto again = cache.get(key, build);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(builds, 1);

  PlanKey rank_change = key;
  rank_change.rank = 16;
  cache.get(rank_change, build);
  EXPECT_EQ(builds, 2);

  PlanKey options_change = rank_change;
  options_change.options_digest = 43;
  cache.get(options_change, build);
  EXPECT_EQ(builds, 3);

  PlanKey tensor_change = options_change;
  tensor_change.tensor_id = 2;
  cache.get(tensor_change, build);
  EXPECT_EQ(builds, 4);
  EXPECT_EQ(cache.misses(), 4);

  cache.clear();
  EXPECT_FALSE(cache.cached());
  cache.get(tensor_change, build);
  EXPECT_EQ(builds, 5);
}

TEST(PlanCacheTest, AuntfReusesPlanAcrossIterationsAndKeysOnOptions) {
  const SparseTensor t = small_tensor();
  FrameworkOptions opts;
  opts.rank = 4;
  opts.max_iterations = 3;
  CstfFramework framework(t, opts);

  framework.driver().initialize();
  framework.driver().iterate();
  EXPECT_EQ(framework.driver().plan_cache().misses(), 1);
  framework.driver().iterate();
  framework.driver().iterate();
  EXPECT_EQ(framework.driver().plan_cache().misses(), 1);
  EXPECT_GE(framework.driver().plan_cache().hits(), 2);

  // A rank change and a scatter-strategy change each produce a different
  // plan key — fed through a shared cache, each forces a recompile.
  FrameworkOptions rank_opts = opts;
  rank_opts.rank = 8;
  CstfFramework rank_changed(t, rank_opts);
  FrameworkOptions scatter_opts = opts;
  scatter_opts.scatter.strategy = ScatterStrategy::kSorted;
  CstfFramework scatter_changed(t, scatter_opts);

  const PlanKey base_key = framework.driver().plan_key();
  const PlanKey rank_key = rank_changed.driver().plan_key();
  const PlanKey scatter_key = scatter_changed.driver().plan_key();
  EXPECT_FALSE(base_key == rank_key);
  EXPECT_FALSE(base_key == scatter_key);
  EXPECT_NE(base_key.rank, rank_key.rank);
  // Scatter options feed the options digest (they change op-body behavior
  // without touching rank or tensor identity).
  EXPECT_NE(base_key.options_digest, scatter_key.options_digest);
}

TEST(PlanCacheTest, StreamingRecompilesWhenSliceNnzSetChanges) {
  StreamingOptions opt;
  opt.rank = 3;
  opt.seed = 11;
  StreamingCstf stream({10, 8}, opt);

  SparseTensor slice_a({10, 8});
  SparseTensor slice_b({10, 8});
  SparseTensor slice_wider({10, 8});
  Rng rng(3);
  for (index_t i = 0; i < 20; ++i) {
    const index_t coords[2] = {static_cast<index_t>(rng.uniform_index(10)),
                               static_cast<index_t>(rng.uniform_index(8))};
    slice_a.append(coords, 1.0);
    slice_b.append(coords, 0.5);
    slice_wider.append(coords, 0.25);
  }
  {
    const index_t extra[2] = {0, 0};
    slice_wider.append(extra, 1.0);  // different nonzero count
  }

  stream.ingest(slice_a);
  EXPECT_EQ(stream.plan_cache().misses(), 1);
  stream.ingest(slice_b);  // same nnz set size: the compiled plan is reused
  EXPECT_EQ(stream.plan_cache().misses(), 1);
  EXPECT_GE(stream.plan_cache().hits(), 1);
  stream.ingest(slice_wider);  // nnz change: recompile
  EXPECT_EQ(stream.plan_cache().misses(), 2);
}

TEST(PlanCacheTest, FoldInRecompilesOnSnapshotOrBatchShapeChange) {
  Rng rng(5);
  serve::SavedModel saved;
  saved.model.factors.emplace_back(9, 3);
  saved.model.factors.emplace_back(7, 3);
  saved.model.factors.emplace_back(5, 3);
  for (Matrix& f : saved.model.factors) f.fill_uniform(rng, 0.1, 1.0);
  saved.model.lambda = {1.0, 1.0, 1.0};
  saved.meta.set_constraint(Proximity::non_negative());

  serve::ModelStore store;
  serve::ServableModelPtr snap1 = store.publish(saved);
  serve::ServableModelPtr snap2 = store.publish(saved);  // new generation

  simgpu::Device device(simgpu::a100());
  serve::ServeRuntime runtime(device, global_pool());
  serve::FoldInEngine engine(runtime);

  serve::FoldInRequest req;
  req.mode = 0;
  req.coords = {2, 1};
  req.values = {0.7};

  engine.fold_in(*snap1, req);
  EXPECT_EQ(engine.plan_cache().misses(), 1);
  engine.fold_in(*snap1, req);  // same snapshot + shape: reuse
  EXPECT_EQ(engine.plan_cache().misses(), 1);
  EXPECT_GE(engine.plan_cache().hits(), 1);
  engine.fold_in_batch(*snap1, {req, req});  // batch-shape change
  EXPECT_EQ(engine.plan_cache().misses(), 2);
  engine.fold_in(*snap2, req);  // hot-swapped generation
  EXPECT_EQ(engine.plan_cache().misses(), 3);
}

// ModelStore::publish builds the snapshot's Grams and Cholesky factors on
// the shared thread pool while predict and fold-in traffic runs on it too.
// The publisher holds no serving lock: the pool itself must take the
// concurrent regions in turn (run under TSan by the exec label). Sizes are
// chosen so every side reaches the pool: a rank-32 Gram spans several
// units, a 2048-query predict batch exceeds the parallel grain, and a
// fold-in batch parallelizes over its rows.
TEST(ServeConcurrency, PublishDuringPredictAndFoldInTraffic) {
  const index_t rank = 32;
  const std::vector<index_t> rows = {3000, 2500, 2000};
  auto make_saved = [&](std::uint64_t seed) {
    Rng rng(seed);
    serve::SavedModel saved;
    saved.meta.name = "hot";
    for (index_t n : rows) {
      saved.model.factors.emplace_back(n, rank);
      saved.model.factors.back().fill_uniform(rng, 0.1, 1.0);
    }
    saved.model.lambda.assign(static_cast<std::size_t>(rank), 1.0);
    saved.meta.set_constraint(Proximity::non_negative());
    return saved;
  };

  serve::ModelStore store;
  store.publish(make_saved(1));
  simgpu::Device device(simgpu::a100());
  serve::ServeRuntime runtime(device, global_pool());
  serve::QueryEngine queries(runtime);
  serve::FoldInEngine folds(runtime);

  std::vector<index_t> coords;
  for (index_t q = 0; q < 2048; ++q) {
    for (index_t n : rows) coords.push_back((q * 7919) % n);
  }
  std::vector<serve::FoldInRequest> batch(8);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    batch[b].mode = 0;
    const auto row = static_cast<index_t>(b);
    batch[b].coords = {row, 7, 11 + row, 13};
    batch[b].values = {0.5, 0.9};
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad_results{0};
  std::atomic<int> served{0};
  std::thread predict_traffic([&] {
    while (!stop.load()) {
      const serve::ServableModelPtr snap = store.get("hot");
      for (real_t v : queries.predict(*snap, coords)) {
        if (!std::isfinite(v)) bad_results.fetch_add(1);
      }
      served.fetch_add(1);
    }
  });
  std::thread fold_in_traffic([&] {
    while (!stop.load()) {
      const serve::ServableModelPtr snap = store.get("hot");
      for (const serve::FoldInResult& r : folds.fold_in_batch(*snap, batch)) {
        if (r.row.size() != static_cast<std::size_t>(rank)) {
          bad_results.fetch_add(1);
        }
        for (real_t v : r.row) {
          if (!std::isfinite(v) || v < 0.0) bad_results.fetch_add(1);
        }
      }
      served.fetch_add(1);
    }
  });

  std::uint64_t last_generation = 0;
  for (std::uint64_t p = 0; p < 20; ++p) {
    last_generation = store.publish(make_saved(10 + p))->generation();
  }
  while (served.load() < 20) std::this_thread::yield();
  stop.store(true);
  predict_traffic.join();
  fold_in_traffic.join();

  EXPECT_EQ(bad_results.load(), 0);
  EXPECT_EQ(store.get("hot")->generation(), last_generation);
}

// ---------------------------------------------------------------------------
// Digest stability: these values are persisted inside CSTFCKPT checkpoints
// and CSTF model files — changing them orphans existing artifacts. The
// golden constants pin the DigestBuilder encoding and the digest field
// lists; a deliberate format change must bump the file format versions.

TEST(DigestStability, BuilderEncodingIsPinned) {
  DigestBuilder d;
  d.u64(1).f64(2.0).boolean(true).str("x");
  EXPECT_EQ(d.value(), 0x7bb000e2d9cc7e34ULL);

  // Field order is part of the definition.
  DigestBuilder swapped;
  swapped.f64(2.0).u64(1).boolean(true).str("x");
  EXPECT_NE(swapped.value(), 0x7bb000e2d9cc7e34ULL);

  // An empty builder starts at the FNV-1a offset basis.
  EXPECT_EQ(DigestBuilder().value(), 0xcbf29ce484222325ULL);
}

TEST(DigestStability, TrainingDigestIgnoresConvergenceAndCheckpointKnobs) {
  FrameworkOptions base;
  // Pinned for checkpoint format v5. v4 added the autotuning policy,
  // per-mode scatter picks, and the parallel chunk knob, all of which shape
  // fp accumulation order; v5 dropped the MTTKRP engine selection and its
  // chain budget, because the per-mode BLCO kernels are the only engine.
  EXPECT_EQ(digest_training_options(base), 0x5c55fce42f171831ULL);

  FrameworkOptions resumable = base;
  resumable.max_iterations = 500;
  resumable.fit_tolerance = 1e-6;
  resumable.checkpoint_every = 2;
  resumable.checkpoint_path = "ckpt.cstf";
  resumable.resume_from = "old.cstf";
  resumable.pipeline_streams = true;  // modeling knob: same math
  EXPECT_EQ(digest_training_options(resumable), digest_training_options(base));

  FrameworkOptions different_rank = base;
  different_rank.rank = 16;
  EXPECT_NE(digest_training_options(different_rank),
            digest_training_options(base));
  FrameworkOptions different_seed = base;
  different_seed.seed = 43;
  EXPECT_NE(digest_training_options(different_seed),
            digest_training_options(base));
  FrameworkOptions different_scatter = base;
  different_scatter.scatter.strategy = ScatterStrategy::kSorted;
  EXPECT_NE(digest_training_options(different_scatter),
            digest_training_options(base));
  FrameworkOptions different_policy = base;
  different_policy.tuning.policy = autotune::TuningPolicy::kMeasure;
  EXPECT_NE(digest_training_options(different_policy),
            digest_training_options(base));
  FrameworkOptions different_per_mode = base;
  different_per_mode.scatter.per_mode = {ScatterStrategy::kSorted,
                                         ScatterStrategy::kAtomic,
                                         ScatterStrategy::kPrivatized};
  EXPECT_NE(digest_training_options(different_per_mode),
            digest_training_options(base));
}

TEST(DigestStability, ServingDigestTracksEverythingThatChangesTheModel) {
  FrameworkOptions base;
  EXPECT_EQ(serve::digest_options(base), 0xf0eb40a20d81ccbeULL);

  // Unlike the checkpoint digest, the serving digest pins max_iterations —
  // two models trained for different iteration counts are different models.
  FrameworkOptions longer = base;
  longer.max_iterations = 50;
  EXPECT_NE(serve::digest_options(longer), serve::digest_options(base));
}

}  // namespace
}  // namespace cstf
