// Tests for the critical-path attribution profiler and run-snapshot
// subsystem (docs/OBSERVABILITY.md "Attribution"):
//   * the key invariant — attributed categories sum exactly to
//     RunMetrics.ticks — for every cell of a stride-32 sweep across all
//     six Table 15 configurations and both branch scenarios;
//   * the static lower bound never exceeds the attributed ticks;
//   * a flight recorder attached to an engine never changes results;
//   * snapshot round trips are byte-stable, every single-byte flip is
//     rejected, a snapshot diffed against itself is identical, and
//     serial vs parallel sweeps produce byte-identical snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/explain.hpp"
#include "analysis/figure_of_merit.hpp"
#include "analysis/report.hpp"
#include "cache/key.hpp"
#include "fabric/dataflow_graph.hpp"
#include "obs/critpath.hpp"
#include "obs/snapshot.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

const workloads::Corpus& corpus() {
  static const workloads::Corpus c = workloads::make_corpus({});
  return c;
}

analysis::Sweep attribution_sweep(int threads) {
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus().program.methods) {
    methods.push_back(&m);
  }
  analysis::SweepOptions options;
  options.stride = 32;  // the CI smoke stride: a real corpus slice
  options.threads = threads;
  options.allow_oversubscribe = true;
  options.attribution = true;
  return analysis::run_sweep(methods, corpus().program.pool, {}, options);
}

obs::Snapshot stride32_snapshot(int threads) {
  analysis::SnapshotBuildOptions options;
  options.stride = 32;
  options.threads = threads;
  options.allow_oversubscribe = true;
  return analysis::build_snapshot(corpus(), options);
}

// ---- the key invariant ----

TEST(Attribution, CategoriesSumToTicksAcrossAllConfigsAndScenarios) {
  const analysis::Sweep sweep = attribution_sweep(1);
  ASSERT_EQ(sweep.configs.size(), 6u);  // all six Table 15 configs
  ASSERT_EQ(sweep.attribution.size(), sweep.samples.size());
  ASSERT_FALSE(sweep.samples.empty());

  std::size_t attributed = 0;
  for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
    const analysis::SweepSample& s = sweep.samples[i];
    const analysis::CellAttribution& cell = sweep.attribution[i];
    if (!s.metrics.fits || !s.metrics.completed || s.metrics.timed_out) {
      EXPECT_FALSE(cell.valid)
          << s.method << " on " << sweep.configs[s.config_index].name;
      continue;
    }
    ASSERT_TRUE(cell.valid)
        << s.method << " on " << sweep.configs[s.config_index].name
        << " scenario " << static_cast<int>(s.scenario);
    EXPECT_EQ(cell.total(), s.metrics.ticks)
        << s.method << " on " << sweep.configs[s.config_index].name;
    ++attributed;
  }
  EXPECT_GT(attributed, 0u);
}

TEST(Attribution, EveryConfigAndScenarioHasAttributedCells) {
  const analysis::Sweep sweep = attribution_sweep(1);
  std::vector<int> per_config(sweep.configs.size(), 0);
  int bp1 = 0, bp2 = 0;
  for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
    if (!sweep.attribution[i].valid) continue;
    ++per_config[sweep.samples[i].config_index];
    (sweep.samples[i].scenario == sim::BranchPredictor::Scenario::BP1
         ? bp1
         : bp2)++;
  }
  for (std::size_t ci = 0; ci < per_config.size(); ++ci) {
    EXPECT_GT(per_config[ci], 0) << sweep.configs[ci].name;
  }
  EXPECT_GT(bp1, 0);
  EXPECT_GT(bp2, 0);
}

// Four worker lanes run the cells in a different order, each on its own
// engines; neither may move a sample or an attribution vector.
TEST(Attribution, IdenticalAcrossThreadCountsAndSchedulers) {
  const analysis::Sweep serial = attribution_sweep(1);
  const analysis::Sweep parallel = attribution_sweep(4);
  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.attribution, parallel.attribution);
}

TEST(Attribution, RecorderNeverChangesRunMetrics) {
  const bytecode::Method& m = corpus().program.methods.front();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(m, corpus().program.pool);
  for (const sim::MachineConfig& config : sim::table15_configs()) {
    sim::Engine plain(config);
    sim::BranchPredictor p1(sim::BranchPredictor::Scenario::BP1);
    const sim::RunMetrics without = plain.run(m, graph, p1);

    obs::FlightRecorder flight;
    sim::EngineOptions options;
    options.flight = &flight;
    sim::Engine instrumented(config, options);
    sim::BranchPredictor p2(sim::BranchPredictor::Scenario::BP1);
    const sim::RunMetrics with = instrumented.run(m, graph, p2);

    EXPECT_EQ(without, with) << config.name;
  }
}

TEST(Attribution, DetailStepsAreContiguousAndSumToTicks) {
  const bytecode::Method& m = corpus().program.methods.front();
  const analysis::Explanation ex = analysis::explain_method(
      m, corpus().program.pool, sim::config_by_name("Compact2"),
      sim::BranchPredictor::Scenario::BP1);
  ASSERT_TRUE(ex.ok) << ex.error;
  ASSERT_FALSE(ex.attribution.steps.empty());
  EXPECT_EQ(ex.attribution.steps.front().from_tick, 0);
  EXPECT_EQ(ex.attribution.steps.back().to_tick, ex.metrics.ticks);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < ex.attribution.steps.size(); ++i) {
    const obs::PathStep& s = ex.attribution.steps[i];
    if (i > 0) {
      EXPECT_EQ(s.from_tick, ex.attribution.steps[i - 1].to_tick);
    }
    sum += s.ticks();
  }
  EXPECT_EQ(sum, ex.metrics.ticks);
  EXPECT_EQ(ex.attribution.total(), ex.metrics.ticks);
}

TEST(Attribution, RowsAndReportJsonCarryTheCategoryTotals) {
  const analysis::Sweep sweep = attribution_sweep(1);
  const std::vector<analysis::AttributionRow> rows =
      analysis::attribution_rows(sweep);
  ASSERT_EQ(rows.size(), sweep.configs.size());
  for (const analysis::AttributionRow& row : rows) {
    ASSERT_GT(row.samples, 0u) << row.config;
    std::int64_t sum = 0;
    for (const std::int64_t v : row.category_ticks) sum += v;
    EXPECT_EQ(sum, row.total_ticks) << row.config;
  }
  std::ostringstream os;
  analysis::write_sweep_json(os, sweep);
  EXPECT_NE(os.str().find("\"attribution\""), std::string::npos);
  EXPECT_NE(os.str().find("\"tail_hold\""), std::string::npos);
}

// ---- static bound vs realized path ----

TEST(Snapshot, LowerBoundNeverExceedsAttributedTicks) {
  const obs::Snapshot snap = stride32_snapshot(1);
  ASSERT_FALSE(snap.cells.empty());
  std::size_t bounded = 0;
  for (const obs::SnapshotCell& cell : snap.cells) {
    if (cell.lower_bound < 0) continue;
    EXPECT_LE(cell.lower_bound, cell.ticks)
        << cell.method << " on "
        << snap.config_names[static_cast<std::size_t>(cell.config_index)];
    ++bounded;
  }
  EXPECT_GT(bounded, 0u);
}

// ---- snapshot round trips and integrity ----

TEST(Snapshot, RoundTripIsByteStable) {
  const obs::Snapshot snap = stride32_snapshot(1);
  const std::string bytes = obs::serialize_snapshot(snap);
  obs::Snapshot loaded;
  ASSERT_TRUE(obs::deserialize_snapshot(bytes, loaded));
  EXPECT_EQ(loaded, snap);
  EXPECT_EQ(obs::serialize_snapshot(loaded), bytes);
  EXPECT_NE(obs::snapshot_digest(bytes), 0u);
}

TEST(Snapshot, EveryByteFlipIsRejected) {
  // A small snapshot so the exhaustive flip stays fast.
  obs::Snapshot snap;
  snap.scheduler = "calendar";
  snap.stride = 32;
  snap.config_names = {"Baseline", "Compact2"};
  snap.config_texts = {"cfg:Baseline", "cfg:Compact2"};
  for (int i = 0; i < 4; ++i) {
    obs::SnapshotCell cell;
    cell.method = "m" + std::to_string(i);
    cell.config_index = i % 2;
    cell.scenario = static_cast<std::uint8_t>(i / 2);
    cell.fits = cell.completed = true;
    cell.attributed = true;
    cell.ticks = 100 + i;
    cell.lower_bound = 50 + i;
    cell.category_ticks[0] = 60 + i;
    cell.category_ticks[4] = 40;
    snap.cells.push_back(cell);
  }
  const std::string bytes = obs::serialize_snapshot(snap);
  obs::Snapshot loaded;
  ASSERT_TRUE(obs::deserialize_snapshot(bytes, loaded));
  ASSERT_EQ(loaded, snap);

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(
          static_cast<std::uint8_t>(corrupt[i]) ^ flip);
      obs::Snapshot out;
      EXPECT_FALSE(obs::deserialize_snapshot(corrupt, out))
          << "flip 0x" << std::hex << static_cast<int>(flip)
          << " at byte " << std::dec << i << " was accepted";
    }
  }
  // Truncation and trailing garbage are rejected too.
  obs::Snapshot out;
  EXPECT_FALSE(obs::deserialize_snapshot(
      std::string_view(bytes).substr(0, bytes.size() - 1), out));
  EXPECT_FALSE(obs::deserialize_snapshot(bytes + '\0', out));
  EXPECT_FALSE(obs::deserialize_snapshot("", out));
}

TEST(Snapshot, SelfDiffIsIdenticalAndEmpty) {
  const obs::Snapshot snap = stride32_snapshot(1);
  const obs::SnapshotDiff d = obs::diff_snapshots(snap, snap);
  EXPECT_TRUE(d.comparable);
  EXPECT_TRUE(d.identical);
  EXPECT_TRUE(d.notes.empty());
  EXPECT_TRUE(d.changed.empty());
  EXPECT_EQ(d.matched, snap.cells.size());
  EXPECT_EQ(d.net_tick_drift, 0);
  for (const std::int64_t v : d.net_category_drift) EXPECT_EQ(v, 0);

  std::ostringstream text;
  obs::write_diff_text(text, d);
  EXPECT_NE(text.str().find("identical"), std::string::npos);
}

TEST(Snapshot, DiffDetectsDriftAndFingerprintMismatch) {
  const obs::Snapshot a = stride32_snapshot(1);
  obs::Snapshot b = a;
  ASSERT_FALSE(b.cells.empty());
  b.cells.front().ticks += 7;
  b.cells.front().category_ticks[0] += 7;
  const obs::SnapshotDiff drift = obs::diff_snapshots(a, b);
  EXPECT_TRUE(drift.comparable);
  EXPECT_FALSE(drift.identical);
  ASSERT_EQ(drift.changed.size(), 1u);
  EXPECT_EQ(drift.changed.front().ticks_b - drift.changed.front().ticks_a,
            7);
  EXPECT_EQ(drift.net_tick_drift, 7);

  obs::Snapshot c = a;
  c.attribution_fingerprint += 1;
  const obs::SnapshotDiff incomparable = obs::diff_snapshots(a, c);
  EXPECT_FALSE(incomparable.comparable);
  EXPECT_FALSE(incomparable.identical);
}

TEST(Snapshot, SerialAndParallelSweepsProduceIdenticalBytes) {
  const obs::Snapshot serial = stride32_snapshot(1);
  const obs::Snapshot parallel = stride32_snapshot(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(obs::serialize_snapshot(serial),
            obs::serialize_snapshot(parallel));
}

TEST(Snapshot, SaveLoadRoundTripsThroughDisk) {
  const obs::Snapshot snap = stride32_snapshot(1);
  const std::string path =
      testing::TempDir() + "/javaflow_test_snapshot.jfs";
  ASSERT_TRUE(obs::save_snapshot(snap, path));
  obs::Snapshot loaded;
  ASSERT_TRUE(obs::load_snapshot(path, loaded));
  EXPECT_EQ(loaded, snap);
  std::remove(path.c_str());
}

// ---- fingerprints ----

// record_fingerprint() is an FNV-1a 32 fold over, in order: plan
// lowering, execution kernel, analyzer, and attribution versions.
// Recomputing the fold here pins both the constant set and the fold
// order — bumping any version constant (or
// reordering the fold) must change the stamped fingerprint.
TEST(Fingerprint, VersionConstantsAreFoldedIntoCacheRecords) {
  const auto fold = [](std::initializer_list<std::uint32_t> vs) {
    std::uint32_t h = 2166136261u;
    for (const std::uint32_t v : vs) {
      for (int i = 0; i < 4; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 16777619u;
      }
    }
    return h;
  };
  EXPECT_EQ(cache::record_fingerprint(),
            fold({sim::kPlanFingerprint, cache::kEngineFingerprint,
                  cache::kAnalysisFingerprint,
                  obs::kAttributionFingerprint}));
  // Sensitivity: a bump of any single constant moves the fingerprint.
  EXPECT_NE(cache::record_fingerprint(),
            fold({sim::kPlanFingerprint, cache::kEngineFingerprint + 1,
                  cache::kAnalysisFingerprint,
                  obs::kAttributionFingerprint}));
}

}  // namespace
}  // namespace javaflow
