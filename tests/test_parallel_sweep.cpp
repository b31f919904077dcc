// Tests for the parallel sweep engine: byte-identical output across
// thread counts, the serial in-line fallback, the thread-pool utility,
// and determinism of engine workspace reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// ---- ThreadPool ----

TEST(ThreadPool, ResolveMapsRequestsToWorkerCounts) {
  EXPECT_EQ(util::ThreadPool::resolve(1), 1u);
  EXPECT_EQ(util::ThreadPool::resolve(5), 5u);
  EXPECT_EQ(util::ThreadPool::resolve(0), util::ThreadPool::hardware_threads());
  EXPECT_EQ(util::ThreadPool::resolve(-3),
            util::ThreadPool::hardware_threads());
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, ResolveClampedCapsAtHardwareThreads) {
  const unsigned hw = util::ThreadPool::hardware_threads();
  // Requests within the machine pass through untouched.
  EXPECT_EQ(util::ThreadPool::resolve_clamped(1), 1u);
  EXPECT_EQ(util::ThreadPool::resolve_clamped(0), hw);
  EXPECT_EQ(util::ThreadPool::resolve_clamped(static_cast<int>(hw)), hw);
  // Oversubscription clamps, with a stderr warning.
  EXPECT_EQ(util::ThreadPool::resolve_clamped(static_cast<int>(hw) + 3), hw);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i, unsigned lane) {
    ASSERT_LT(lane, pool.size());
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRunsInlineWhenWorkIsSmall) {
  util::ThreadPool pool(4);
  std::thread::id body_thread;
  pool.parallel_for(1, [&](std::size_t, unsigned lane) {
    EXPECT_EQ(lane, 0u);
    body_thread = std::this_thread::get_id();
  });
  // n <= 1 takes the in-line path: no handoff to a worker.
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ThreadPool, SubmitAndWaitIdleDrainTheQueue) {
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

// ---- sweep determinism ----

analysis::Sweep corpus_sweep(int threads, int stride) {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
    hot.push_back(corpus.program.methods[i].name);
  }
  analysis::SweepOptions options;
  options.stride = stride;
  options.threads = threads;
  return analysis::run_sweep(methods, corpus.program.pool, hot, options);
}

TEST(ParallelSweep, MatchesSerialOnStridedCorpus) {
  const analysis::Sweep serial = corpus_sweep(/*threads=*/1, /*stride=*/61);
  const analysis::Sweep parallel = corpus_sweep(/*threads=*/4, /*stride=*/61);

  ASSERT_GT(serial.samples.size(), 100u);  // a real cross-section
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    ASSERT_EQ(serial.samples[i], parallel.samples[i])
        << "sample " << i << " (" << serial.samples[i].method << " vs "
        << parallel.samples[i].method << ")";
  }
  EXPECT_EQ(serial.samples, parallel.samples);

  // The engine work counters are deterministic too: summed over lanes,
  // the same at every thread count.
  const analysis::SweepProfile::Lane one = serial.profile.total();
  const analysis::SweepProfile::Lane four = parallel.profile.total();
  EXPECT_GT(one.ff_periods, 0);
  EXPECT_EQ(one.ff_periods, four.ff_periods);
  EXPECT_EQ(one.ff_messages, four.ff_messages);
  EXPECT_EQ(one.spills, four.spills);
}

// run_sweep takes the worker count as given, also beyond the hardware
// threads: only the bench harnesses, which report timings, clamp.
TEST(ParallelSweep, ThreadCountIsTakenLiterally) {
  const unsigned threads = util::ThreadPool::hardware_threads() + 1;
  const analysis::Sweep serial = corpus_sweep(/*threads=*/1, /*stride=*/97);
  const analysis::Sweep wide =
      corpus_sweep(static_cast<int>(threads), /*stride=*/97);
  EXPECT_EQ(wide.profile.lanes.size(), threads);
  EXPECT_EQ(wide.samples, serial.samples);
}

TEST(ParallelSweep, ThreadsOneMatchesDefaultOptions) {
  // SweepOptions{} defaults to threads = 1, the in-line path; an
  // explicit 1 must be byte-identical (and take the same path —
  // resolve(1) == 1 never constructs a pool).
  const analysis::Sweep a = corpus_sweep(/*threads=*/1, /*stride=*/173);
  const analysis::Sweep b = corpus_sweep(/*threads=*/2, /*stride=*/173);
  const analysis::Sweep c = corpus_sweep(/*threads=*/1, /*stride=*/173);
  EXPECT_EQ(a.samples, c.samples);
  EXPECT_EQ(a.samples, b.samples);
  ASSERT_EQ(util::ThreadPool::resolve(1), 1u);
}

// ---- engine workspace reuse ----

TEST(EngineWorkspace, ReusedEngineReproducesFreshEngineResults) {
  Program p;
  Assembler a(p, "bm.w(IA)I", "bm");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.aload(1).iload(0).op(Op::iaload).istore(0);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  p.methods.push_back(a.build());
  Assembler b(p, "bm.tiny()I", "bm");
  b.returns(ValueType::Int);
  b.iconst(7).op(Op::ireturn);
  p.methods.push_back(b.build());

  const fabric::DataflowGraph loop_graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const fabric::DataflowGraph tiny_graph =
      fabric::build_dataflow_graph(p.methods[1], p.pool);

  sim::Engine reused(sim::config_by_name("Compact2"));
  std::vector<sim::RunMetrics> first, second;
  for (int round = 0; round < 2; ++round) {
    std::vector<sim::RunMetrics>& out = round == 0 ? first : second;
    // Interleave a big and a tiny method so the reused workspace must
    // shrink and regrow between runs.
    sim::BranchPredictor bp1(sim::BranchPredictor::Scenario::BP1);
    out.push_back(reused.run(p.methods[0], loop_graph, bp1));
    sim::BranchPredictor bp2(sim::BranchPredictor::Scenario::BP2);
    out.push_back(reused.run(p.methods[1], tiny_graph, bp2));
    sim::BranchPredictor bp3(sim::BranchPredictor::Scenario::BP1);
    out.push_back(reused.run(p.methods[0], loop_graph, bp3));
  }
  EXPECT_EQ(first, second);

  sim::Engine fresh(sim::config_by_name("Compact2"));
  sim::BranchPredictor bp(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics fresh_metrics =
      fresh.run(p.methods[0], loop_graph, bp);
  EXPECT_EQ(fresh_metrics, first[0]);
  EXPECT_TRUE(fresh_metrics.completed);
}

}  // namespace
}  // namespace javaflow
