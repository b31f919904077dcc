// Tests for the parallel sweep engine: byte-identical output across
// thread counts, the serial in-line fallback, util::parallel_for, and
// determinism of engine workspace reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "sim/engine.hpp"
#include "util/parallel_for.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// ---- parallel_for ----

TEST(ParallelFor, ResolveMapsRequestsToLaneCounts) {
  EXPECT_EQ(util::resolve(1), 1u);
  EXPECT_EQ(util::resolve(5), 5u);
  EXPECT_EQ(util::resolve(0), util::hardware_threads());
  EXPECT_EQ(util::resolve(-3), util::hardware_threads());
  EXPECT_GE(util::hardware_threads(), 1u);
}

TEST(ParallelFor, ResolveClampedCapsAtHardwareThreads) {
  const unsigned hw = util::hardware_threads();
  // Requests within the machine pass through untouched.
  EXPECT_EQ(util::resolve_clamped(1), 1u);
  EXPECT_EQ(util::resolve_clamped(0), hw);
  EXPECT_EQ(util::resolve_clamped(static_cast<int>(hw)), hw);
  // Oversubscription clamps, with a stderr warning.
  EXPECT_EQ(util::resolve_clamped(static_cast<int>(hw) + 3), hw);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for(4, kN, [&](std::size_t i, unsigned lane) {
    ASSERT_LT(lane, 4u);
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, OneLaneRunsInline) {
  // One index, or one lane, starts no thread: every index runs on the
  // calling thread as lane 0, in order.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [lanes, n] : {std::pair<unsigned, std::size_t>{4, 1},
                                 std::pair<unsigned, std::size_t>{1, 5}}) {
    std::vector<std::size_t> order;
    util::parallel_for(lanes, n, [&](std::size_t i, unsigned lane) {
      EXPECT_EQ(lane, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order.size(), n);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

// Spins until `flag` reads true or ten seconds pass; returns the flag.
bool spin_until(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return flag.load();
}

TEST(ParallelFor, CallerRunsLaneZero) {
  // Four indices that each wait until all four have started: every lane
  // holds exactly one index, so all four lanes run.
  constexpr unsigned kLanes = 4;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<unsigned> started{0};
  std::atomic<bool> all_started{false};
  std::vector<std::thread::id> lane_thread(kLanes);
  std::vector<int> lane_items(kLanes, 0);
  util::parallel_for(kLanes, kLanes, [&](std::size_t, unsigned lane) {
    lane_thread[lane] = std::this_thread::get_id();
    ++lane_items[lane];
    if (started.fetch_add(1) + 1 == kLanes) all_started.store(true);
    EXPECT_TRUE(spin_until(all_started)) << "lane " << lane;
  });
  EXPECT_EQ(lane_items, std::vector<int>(kLanes, 1));
  EXPECT_EQ(lane_thread[0], caller);
  for (unsigned lane = 1; lane < kLanes; ++lane) {
    EXPECT_NE(lane_thread[lane], caller) << "lane " << lane;
    for (unsigned other = 1; other < lane; ++other) {
      EXPECT_NE(lane_thread[lane], lane_thread[other]);
    }
  }
}

TEST(ParallelFor, LaneZeroExceptionReachesTheCaller) {
  // The other lanes each hold one index until lane 0 has thrown, so lane
  // 0 is sure to get one; the exception must surface only after they
  // have finished and joined.
  std::atomic<bool> thrown{false};
  std::atomic<int> running{0};
  std::atomic<int> items{0};
  EXPECT_THROW(
      util::parallel_for(
          4, 64,
          [&](std::size_t, unsigned lane) {
            ++items;
            if (lane == 0) {
              thrown.store(true);
              throw std::runtime_error("lane 0");
            }
            ++running;
            spin_until(thrown);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --running;
          }),
      std::runtime_error);
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(running.load(), 0);
  // The counter is spent on the throw: the other lanes stop after the
  // index they hold instead of draining the rest.
  EXPECT_LT(items.load(), 64);
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
  const unsigned threads = util::hardware_threads() + 1;
  const analysis::Sweep serial = corpus_sweep(/*threads=*/1, /*stride=*/97);
  const analysis::Sweep wide =
      corpus_sweep(static_cast<int>(threads), /*stride=*/97);
  EXPECT_EQ(wide.profile.lanes.size(), threads);
  EXPECT_EQ(wide.samples, serial.samples);
}

TEST(ParallelSweep, ThreadsOneMatchesDefaultOptions) {
  // SweepOptions{} defaults to threads = 1, the in-line path; an
  // explicit 1 must be byte-identical (and take the same path —
  // resolve(1) == 1 starts no thread).
  const analysis::Sweep a = corpus_sweep(/*threads=*/1, /*stride=*/173);
  const analysis::Sweep b = corpus_sweep(/*threads=*/2, /*stride=*/173);
  const analysis::Sweep c = corpus_sweep(/*threads=*/1, /*stride=*/173);
  EXPECT_EQ(a.samples, c.samples);
  EXPECT_EQ(a.samples, b.samples);
  ASSERT_EQ(util::resolve(1), 1u);
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
