// Tests for the observability layer: histogram bucketing, the no-op
// guarantee of a disabled engine, trace determinism across repeated
// runs, registry/RunMetrics consistency, sweep-level metric aggregation
// (serial == parallel), JSON string escaping in every report writer,
// and the hardened env parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "analysis/lint.hpp"
#include "analysis/report.hpp"
#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "util/env.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// ---- Histogram ----

TEST(Histogram, BucketsByPowerOfTwo) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(1024);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 1024);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 1u);  // zeros
  EXPECT_EQ(h.buckets[1], 1u);  // [1, 2)
  EXPECT_EQ(h.buckets[2], 2u);  // [2, 4)
  EXPECT_EQ(h.buckets[3], 1u);  // [4, 8)
  EXPECT_EQ(h.buckets[11], 1u);  // [1024, 2048)
  EXPECT_DOUBLE_EQ(h.mean(), (0.0 + 1 + 2 + 3 + 4 + 1024) / 6.0);
}

TEST(Histogram, MergeIsCommutative) {
  obs::Histogram a, b;
  a.record(5);
  a.record(100);
  b.record(0);
  b.record(7777);

  obs::Histogram ab = a;
  ab.merge(b);
  obs::Histogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.count, 4u);
  EXPECT_EQ(ab.max, 7777u);
}

TEST(Histogram, TopBucketAbsorbsHugeValues) {
  obs::Histogram h;
  h.record(std::int64_t{1} << 40);
  EXPECT_EQ(h.buckets[obs::Histogram::kBuckets - 1], 1u);
}

// ---- test method ----

Program loop_program() {
  Program p;
  Assembler a(p, "obs.loop(IA)I", "obs");
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
  return p;
}

sim::RunMetrics run_once(const Program& p, sim::EngineOptions options) {
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  sim::Engine engine(sim::config_by_name("Compact2"), options);
  sim::BranchPredictor bp(sim::BranchPredictor::Scenario::BP1);
  return engine.run(p.methods[0], graph, bp);
}

// ---- no-op guarantee ----

TEST(Telemetry, DisabledEngineMatchesInstrumentedEngine) {
  const Program p = loop_program();

  const sim::RunMetrics plain = run_once(p, {});

  obs::MetricsRegistry registry;
  obs::EventTracer tracer;
  sim::EngineOptions options;
  options.metrics = &registry;
  options.tracer = &tracer;
  const sim::RunMetrics instrumented = run_once(p, options);

  // Telemetry observes; it must never perturb simulated time.
  EXPECT_EQ(plain, instrumented);
  EXPECT_TRUE(instrumented.completed);
  EXPECT_GT(tracer.events().size(), 0u);
}

// ---- registry / RunMetrics consistency ----

TEST(Telemetry, RegistryCountsMatchRunMetrics) {
  const Program p = loop_program();
  obs::MetricsRegistry registry;
  sim::EngineOptions options;
  options.metrics = &registry;
  const sim::RunMetrics m = run_once(p, options);

  ASSERT_TRUE(m.completed);
  EXPECT_EQ(registry.runs, 1u);
  EXPECT_EQ(registry.serial_messages,
            static_cast<std::uint64_t>(m.serial_messages));
  EXPECT_EQ(registry.mesh_messages,
            static_cast<std::uint64_t>(m.mesh_messages));

  std::uint64_t firings_nodes = 0;
  for (const std::uint64_t f : registry.firings_by_node) firings_nodes += f;
  std::uint64_t firings_ops = 0;
  for (const std::uint64_t f : registry.firings_by_opcode) firings_ops += f;
  EXPECT_EQ(firings_nodes, static_cast<std::uint64_t>(m.instructions_fired));
  EXPECT_EQ(firings_ops, static_cast<std::uint64_t>(m.instructions_fired));

  // Every mesh message contributes its route's hop count to exactly the
  // four direction counters, and per-link loads sum to the same total.
  std::uint64_t dir_hops = 0;
  for (const std::uint64_t h : registry.mesh_dir_hops) dir_hops += h;
  std::uint64_t link_hops = 0;
  for (const auto& [link, n] : registry.mesh_link_load) link_hops += n;
  EXPECT_EQ(dir_hops, link_hops);
  if (m.mesh_messages > 0) {
    EXPECT_GT(dir_hops, 0u);
  }
}

TEST(Telemetry, RegistryAccumulatesAcrossRunsAndMergesCommutatively) {
  const Program p = loop_program();

  obs::MetricsRegistry twice;
  sim::EngineOptions options;
  options.metrics = &twice;
  run_once(p, options);
  run_once(p, options);
  EXPECT_EQ(twice.runs, 2u);

  obs::MetricsRegistry once_a, once_b;
  options.metrics = &once_a;
  run_once(p, options);
  options.metrics = &once_b;
  run_once(p, options);

  obs::MetricsRegistry ab = once_a;
  ab.merge(once_b);
  obs::MetricsRegistry ba = once_b;
  ba.merge(once_a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, twice);
}

TEST(Telemetry, MetricsJsonIsDeterministic) {
  const Program p = loop_program();
  obs::MetricsRegistry registry;
  sim::EngineOptions options;
  options.metrics = &registry;
  run_once(p, options);

  std::ostringstream a, b;
  registry.write_json(a);
  registry.write_json(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"serial\""), std::string::npos);
  EXPECT_NE(a.str().find("\"mesh\""), std::string::npos);
}

// ---- trace determinism ----

std::string trace_json(const Program& p) {
  obs::EventTracer tracer;
  sim::EngineOptions options;
  options.tracer = &tracer;
  const sim::RunMetrics m = run_once(p, options);
  EXPECT_TRUE(m.completed);

  obs::TraceMeta meta;
  meta.method = p.methods[0].name;
  meta.config = "Compact2";
  meta.scenario = "bp1";
  meta.serial_per_mesh = sim::config_by_name("Compact2").serial_per_mesh;
  for (std::size_t i = 0; i < p.methods[0].code.size(); ++i) {
    meta.node_labels.push_back(std::to_string(i));
  }
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer, meta);
  return os.str();
}

TEST(Telemetry, RepeatedRunsProduceIdenticalTraceJson) {
  const Program p = loop_program();
  const std::string first = trace_json(p);
  const std::string second = trace_json(p);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(first.find("\"displayTimeUnit\""), std::string::npos);
  // One track per network on the network pid.
  EXPECT_NE(first.find("serial"), std::string::npos);
  EXPECT_NE(first.find("mesh"), std::string::npos);
}

TEST(Telemetry, TraceRecordsFiringsAsCompleteSlices) {
  const Program p = loop_program();
  obs::EventTracer tracer;
  sim::EngineOptions options;
  options.tracer = &tracer;
  const sim::RunMetrics m = run_once(p, options);

  std::int64_t fire_starts = 0, fire_completes = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::TraceEventKind::FireStart) ++fire_starts;
    if (e.kind == obs::TraceEventKind::FireComplete) ++fire_completes;
  }
  EXPECT_EQ(fire_starts, m.instructions_fired);
  EXPECT_EQ(fire_completes, m.instructions_fired);
}

// ---- sweep-level aggregation ----

analysis::Sweep metrics_sweep(int threads) {
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
  options.stride = 97;
  options.threads = threads;
  // Multi-lane merge coverage must survive the hardware-thread clamp on
  // single-core CI hosts.
  options.allow_oversubscribe = true;
  options.collect_metrics = true;
  return analysis::run_sweep(methods, corpus.program.pool, hot, options);
}

TEST(SweepTelemetry, ParallelMetricsMatchSerialMetrics) {
  const analysis::Sweep serial = metrics_sweep(/*threads=*/1);
  const analysis::Sweep parallel = metrics_sweep(/*threads=*/4);

  ASSERT_GT(serial.samples.size(), 50u);
  EXPECT_EQ(serial.samples, parallel.samples);
  // The merged registry — every counter, histogram, and per-link map —
  // must be identical for any thread count.
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_GT(serial.metrics.runs, 0u);
  EXPECT_GT(serial.metrics.serial_messages, 0u);
}

TEST(SweepTelemetry, ProfileCoversEveryMethodAndCell) {
  const analysis::Sweep sweep = metrics_sweep(/*threads=*/2);
  const analysis::SweepProfile::Lane total = sweep.profile.total();
  EXPECT_EQ(total.cells, sweep.samples.size());
  EXPECT_GT(total.methods, 0u);
  EXPECT_GE(sweep.profile.wall_s, 0.0);
  ASSERT_GE(sweep.profile.lanes.size(), 1u);

  std::ostringstream os;
  analysis::write_sweep_json(os, sweep);
  EXPECT_NE(os.str().find("\"configs\""), std::string::npos);
  EXPECT_NE(os.str().find("\"mesh_messages\""), std::string::npos);
  EXPECT_NE(os.str().find("\"profile\""), std::string::npos);
}

TEST(SweepTelemetry, NetworkRowsAggregatePerConfig) {
  const analysis::Sweep sweep = metrics_sweep(/*threads=*/1);
  const std::vector<analysis::NetworkRow> rows =
      analysis::network_rows(sweep);
  ASSERT_EQ(rows.size(), sweep.configs.size());
  std::size_t usable_rows = 0;
  for (const analysis::NetworkRow& row : rows) {
    if (row.samples == 0) continue;  // no sampled method fit this config
    ++usable_rows;
    EXPECT_GT(row.total_serial_messages, 0u) << row.config;
    EXPECT_GT(row.mean_serial_messages, 0.0) << row.config;
  }
  EXPECT_GT(usable_rows, 0u);
}

// ---- JSON string escaping ----

// Every writer that puts a name into JSON escapes it the same way: a
// quote, a backslash, a newline and byte 0x01 come out as \", \\, \n
// and \u0001, and no raw control byte reaches the output (the writers'
// own line breaks between tokens are the only newlines).
TEST(JsonEscape, EveryWriterEscapesQuotesBackslashesAndControlBytes) {
  const std::string name = "a\"b\\c\nd\x01z";
  const std::string escaped = "a\\\"b\\\\c\\nd\\u0001z";
  std::vector<std::pair<std::string, std::string>> outputs;

  {
    obs::EventTracer tracer;
    obs::TraceMeta meta;
    meta.method = name;
    meta.config = name;
    meta.scenario = name;
    std::ostringstream os;
    obs::write_chrome_trace(os, tracer, meta);
    outputs.emplace_back("write_chrome_trace", os.str());
  }
  {
    Program p;
    Assembler a(p, "t.json()I", "test");
    a.returns(ValueType::Int);
    a.iconst(1).op(Op::ireturn);
    p.methods.push_back(a.build());
    sim::MachineConfig config = sim::config_by_name("Compact2");
    config.name = name;
    analysis::SweepOptions options;
    options.configs = {config};
    const analysis::Sweep sweep =
        analysis::run_sweep({&p.methods[0]}, p.pool, {}, options);
    std::ostringstream os;
    analysis::write_sweep_json(os, sweep);
    outputs.emplace_back("write_sweep_json", os.str());
  }
  {
    serve::ServeReport report;
    report.config_name = name;
    std::ostringstream os;
    report.write_json(os);
    outputs.emplace_back("ServeReport::write_json", os.str());
  }
  {
    analysis::LintReport report;
    report.add(analysis::LintRule::DanglingEdge, name, -1, -1, name);
    outputs.emplace_back("lint to_json", analysis::to_json(report));
  }
  {
    obs::SnapshotDiff diff;
    diff.notes.push_back(name);
    obs::SnapshotDiff::CellDelta cell;
    cell.method = name;
    cell.config = name;
    diff.changed.push_back(cell);
    std::ostringstream os;
    obs::write_diff_json(os, diff);
    outputs.emplace_back("write_diff_json", os.str());
  }

  for (const auto& [writer, json] : outputs) {
    EXPECT_NE(json.find(escaped), std::string::npos) << writer << ": " << json;
    for (const char c : json) {
      EXPECT_FALSE(c != '\n' && static_cast<unsigned char>(c) < 0x20)
          << writer << " wrote raw byte " << int(c);
    }
  }
}

// ---- env parsing ----

TEST(EnvParsing, ParseLongRejectsGarbage) {
  EXPECT_EQ(util::parse_long("42").value_or(-1), 42);
  EXPECT_EQ(util::parse_long("-3").value_or(1), -3);
  EXPECT_FALSE(util::parse_long("abc").has_value());
  EXPECT_FALSE(util::parse_long("4x").has_value());
  EXPECT_FALSE(util::parse_long("").has_value());
  EXPECT_FALSE(util::parse_long(nullptr).has_value());
  EXPECT_FALSE(util::parse_long("99999999999999999999").has_value());
  // The optional range is inclusive; the CLI flags lean on it.
  EXPECT_EQ(util::parse_long("256", 0, 256).value_or(-1), 256);
  EXPECT_FALSE(util::parse_long("257", 0, 256).has_value());
  EXPECT_FALSE(util::parse_long("-7", 1).has_value());
  EXPECT_FALSE(util::parse_long("4294967297", 0, 2147483647).has_value());
  // --seed: every unsigned 64-bit value, and nothing strtoull would
  // negate, skip or wrap.
  EXPECT_EQ(util::parse_u64("18446744073709551615").value_or(0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(util::parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(util::parse_u64("-1").has_value());
  EXPECT_FALSE(util::parse_u64(" 1").has_value());
  EXPECT_FALSE(util::parse_u64("1x").has_value());
  EXPECT_FALSE(util::parse_u64(nullptr).has_value());
}

TEST(EnvParsing, EnvIntFallsBackOnGarbageAndBounds) {
  ::setenv("JAVAFLOW_TEST_ENV", "abc", 1);
  EXPECT_EQ(util::env_int("JAVAFLOW_TEST_ENV", 7, 0), 7);
  ::setenv("JAVAFLOW_TEST_ENV", "-2", 1);
  EXPECT_EQ(util::env_int("JAVAFLOW_TEST_ENV", 7, 0), 7);  // below min_ok
  ::setenv("JAVAFLOW_TEST_ENV", "12", 1);
  EXPECT_EQ(util::env_int("JAVAFLOW_TEST_ENV", 7, 0), 12);
  ::unsetenv("JAVAFLOW_TEST_ENV");
  EXPECT_EQ(util::env_int("JAVAFLOW_TEST_ENV", 7, 0), 7);
}

}  // namespace
}  // namespace javaflow
