#include "analysis/figure_of_merit.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "analysis/bounds.hpp"
#include "cache/key.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/resolver.hpp"
#include "util/parallel_for.hpp"

namespace javaflow::analysis {

namespace {

std::string_view sweep_scenario_name(sim::BranchPredictor::Scenario s) {
  switch (s) {
    case sim::BranchPredictor::Scenario::BP1: return "BP1";
    case sim::BranchPredictor::Scenario::BP2: return "BP2";
    case sim::BranchPredictor::Scenario::Trace: return "Trace";
  }
  return "?";
}

}  // namespace

SweepProfile::Lane SweepProfile::total() const {
  Lane t;
  for (const Lane& l : lanes) {
    t.verify_s += l.verify_s;
    t.resolve_s += l.resolve_s;
    t.place_s += l.place_s;
    t.plan_s += l.plan_s;
    t.execute_s += l.execute_s;
    t.cache_s += l.cache_s;
    t.methods += l.methods;
    t.cells += l.cells;
    t.cache_hit_cells += l.cache_hit_cells;
    t.cache_miss_cells += l.cache_miss_cells;
    t.dedup_cells += l.dedup_cells;
    t.ff_periods += l.ff_periods;
    t.ff_messages += l.ff_messages;
    t.spills += l.spills;
  }
  return t;
}

bool filter_accepts(Filter f, std::size_t static_insts,
                    bool is_hot) noexcept {
  switch (f) {
    case Filter::All:
      return true;
    case Filter::Filter1:
      return static_insts > 10 && static_insts < 1000;
    case Filter::Filter2:
      return is_hot && static_insts > 10 && static_insts < 1000;
  }
  return true;
}

Sweep run_sweep(const std::vector<const bytecode::Method*>& methods,
                const bytecode::ConstantPool& pool,
                const std::vector<std::string>& hot_methods,
                const SweepOptions& options) {
  if (options.cache != cache::CacheMode::Off && options.cache_dir.empty()) {
    throw std::invalid_argument(
        "run_sweep: the result cache is on but cache_dir is empty");
  }
  Sweep sweep;
  sweep.configs = options.configs.empty() ? sim::table15_configs()
                                          : options.configs;
  const std::unordered_set<std::string> hot(hot_methods.begin(),
                                            hot_methods.end());

  const auto stride = static_cast<std::size_t>(std::max(options.stride, 1));
  std::vector<std::size_t> picks;
  picks.reserve(methods.size() / stride + 1);
  for (std::size_t mi = 0; mi < methods.size(); mi += stride) {
    picks.push_back(mi);
  }

  // Each selected method owns a fixed block of config-major cells, so
  // the sample sequence is identical however the methods are scheduled.
  const auto& scenarios = SweepOptions::scenarios;
  const std::size_t n_configs = sweep.configs.size();
  const std::size_t n_scenarios = scenarios.size();
  const std::size_t cells_per_method = n_configs * n_scenarios;
  sweep.samples.resize(picks.size() * cells_per_method);
  if (options.analyze) {
    sweep.attribution.resize(sweep.samples.size());
    sweep.lower_bounds.resize(sweep.samples.size());
  }

  // ---- result cache setup (docs/PERF.md) ----

  // Analysis reads what only execution produces — the dependency edges
  // behind the attribution and each run's buffer high-water marks — so
  // an analysis sweep runs with the cache off: no cell is served from a
  // record and no record is stored.
  cache::CacheMode mode = options.cache;
  if (options.analyze && mode != cache::CacheMode::Off) {
    std::fprintf(stderr,
                 "javaflow-cache: telemetry enabled, disabling the result "
                 "cache for this sweep\n");
    mode = cache::CacheMode::Off;
  }
  std::optional<cache::CacheStore> store;
  if (mode != cache::CacheMode::Off) store.emplace(options.cache_dir);
  sweep.cache.mode = std::string(cache::cache_mode_name(mode));

  // Body digests drive both the dedup grouping and the cache keys.
  // Hashing the whole corpus is a few milliseconds — noise next to a
  // single cell.
  std::vector<cache::Hash128> body_hash(picks.size());
  for (std::size_t pi = 0; pi < picks.size(); ++pi) {
    body_hash[pi] = cache::hash_method_body(*methods[picks[pi]]);
  }
  cache::Hash128 pool_hash;
  cache::Hash128 engine_hash;
  std::vector<cache::Hash128> config_hash;
  if (store.has_value()) {
    pool_hash = cache::hash_pool(pool);
    engine_hash = cache::hash_engine_options(
        sim::EngineOptions{}, sim::resolve_scheduler(sim::SchedulerKind::Auto));
    config_hash.reserve(n_configs);
    for (const sim::MachineConfig& cfg : sweep.configs) {
      config_hash.push_back(cache::hash_config(cfg));
    }
  }

  // Corpus dedup: the first pick with a given body digest is the leader
  // and is the only one simulated; duplicates copy its cells (the engine
  // never reads the method name, so the copies are exact) in a serial
  // post-pass below. No two work items then share a cache record, so one
  // lane's store is never another item's probe. `work` preserves pick
  // order, so sample indexing stays deterministic for every thread count.
  std::vector<std::size_t> leader_of(picks.size());
  std::vector<std::size_t> work;
  work.reserve(picks.size());
  {
    std::map<cache::Hash128, std::size_t> first_with_body;
    for (std::size_t pi = 0; pi < picks.size(); ++pi) {
      const auto [it, inserted] =
          first_with_body.try_emplace(body_hash[pi], pi);
      leader_of[pi] = it->second;
      if (inserted) work.push_back(pi);
    }
  }

  // Bounds findings (JF-E010) per work item fill pre-sized slots, so the
  // flattened finding order is the same for every thread count.
  std::vector<LintReport> lint_reports(options.analyze ? work.size() : 0);

  // Everything a worker lane owns privately: engines (whose workspaces
  // amortize per-run allocations across the lane's methods), fabrics for
  // placement, the in-flight method's graph, placements, plans, bounds
  // and cache record, the analysis scratch, and phase timers. Nothing
  // here is touched by another thread while the sweep runs.
  struct LaneState {
    std::vector<sim::Engine> engines;
    std::vector<fabric::Fabric> fabrics;
    // Analysis scratch: the lane's engines write each run's counters
    // here so the run's buffer high-water marks can be checked against
    // the static bound; reset before every run.
    obs::MetricsRegistry registry;
    // Analysis scratch: each engine run resets and refills it; the
    // cell's category vector is extracted right after the run.
    obs::FlightRecorder flight;
    SweepProfile::Lane prof;
    // The in-flight method, one entry per config; each method overwrites
    // the previous one's, and plan storage keeps its capacity.
    fabric::DataflowGraph graph;
    std::vector<fabric::Placement> placements;
    std::vector<sim::ExecPlan> plans;
    std::vector<MethodBounds> bounds;
    sim::ExecPlanBuilder plan_builder;
    // The in-flight method's cell keys, in cell order.
    std::vector<cache::Hash128> keys;
    cache::MethodRecord record;
    // The lane's name interner: each method's cells share one heap
    // string per name instead of twelve copies.
    util::Interner intern;
    std::size_t stored_records = 0;
  };

  auto make_lane = [&] {
    auto lane = std::make_unique<LaneState>();
    lane->fabrics.reserve(n_configs);
    lane->engines.reserve(n_configs);
    sim::EngineOptions engine_options;
    if (options.analyze) {
      engine_options.metrics = &lane->registry;
      engine_options.flight = &lane->flight;
    }
    for (const sim::MachineConfig& cfg : sweep.configs) {
      lane->fabrics.emplace_back(cfg.fabric_options());
      lane->engines.emplace_back(cfg, engine_options);
    }
    lane->placements.resize(n_configs);
    lane->plans.resize(n_configs);
    lane->bounds.resize(n_configs);
    lane->keys.resize(cells_per_method);
    return lane;
  };

  using Clock = std::chrono::steady_clock;
  const auto sweep_t0 = Clock::now();

  // One task per deduplicated method, start to finish on one lane: probe
  // the cache, and stop there if it serves every cell; otherwise lower
  // the graph, placements and per-config plans into the lane's scratch,
  // run every config x scenario cell and store the record.
  auto run_method = [&](std::size_t wi, LaneState& lane) {
    auto t = Clock::now();
    auto lap = [&](double& acc) {
      const auto now = Clock::now();
      acc += std::chrono::duration<double>(now - t).count();
      t = now;
    };

    const std::size_t pi = work[wi];
    const bytecode::Method& m = *methods[picks[pi]];
    const bool is_hot = hot.contains(m.name);
    const util::InternedString& mname = lane.intern.get(m.name);
    const util::InternedString& bname = lane.intern.get(m.benchmark);
    const std::size_t first_cell = pi * cells_per_method;
    SweepSample* out = sweep.samples.data() + first_cell;

    // The cell-identity and name fields, the same however a cell's
    // results are produced.
    for (std::size_t idx = 0; idx < cells_per_method; ++idx) {
      out[idx].method = mname;
      out[idx].benchmark = bname;
      out[idx].config_index = idx / n_scenarios;
      out[idx].scenario = scenarios[idx % n_scenarios];
      out[idx].is_hot = is_hot;
    }

    // ---- cache probe ----
    // A record holds one sweep's cells in cell order. Only a record
    // whose cells carry exactly this sweep's keys, position by position,
    // serves the method; any other executes, and counts as misses, all
    // of the method's cells, which overwrites whatever the probe filled
    // in.
    bool full_hit = false;
    if (store.has_value()) {
      cache::cell_keys(body_hash[pi], pool_hash, config_hash, engine_hash,
                       scenarios, lane.keys);
      full_hit = store->load(cache::record_key(body_hash[pi], pool_hash),
                             cache::record_fingerprint(), lane.record) &&
                 lane.record.cells.size() == cells_per_method;
      for (std::size_t idx = 0; full_hit && idx < cells_per_method; ++idx) {
        const cache::CellRecord& cell = lane.record.cells[idx];
        full_hit = cell.key == lane.keys[idx];
        if (full_hit) {
          out[idx].static_insts = cell.static_insts;
          out[idx].back_jumps = cell.back_jumps;
          out[idx].metrics = cell.metrics;
        }
      }
      lap(lane.prof.cache_s);
    }
    if (full_hit) {
      lane.prof.cache_hit_cells += cells_per_method;
      ++lane.prof.methods;
      lane.prof.cells += cells_per_method;
      return;
    }

    // ---- lower ----
    lane.graph = fabric::build_dataflow_graph(m, pool);
    lap(lane.prof.resolve_s);
    for (std::size_t ci = 0; ci < n_configs; ++ci) {
      lane.placements[ci] = fabric::load_method(lane.fabrics[ci], m);
    }
    lap(lane.prof.place_s);
    for (std::size_t ci = 0; ci < n_configs; ++ci) {
      lane.plan_builder.build_into(lane.plans[ci], m, lane.graph,
                                   &lane.placements[ci], sweep.configs[ci]);
    }
    lap(lane.prof.plan_s);
    if (options.analyze) {
      // The analyzer reads the same lowered image the engine runs.
      for (std::size_t ci = 0; ci < n_configs; ++ci) {
        lane.bounds[ci] = compute_bounds(m, lane.plans[ci]);
        const MethodBounds& b = lane.bounds[ci];
        for (std::size_t si = 0; si < n_scenarios; ++si) {
          sweep.lower_bounds[first_cell + ci * n_scenarios + si] =
              b.valid ? b.lower_bound_ticks : kNoBound;
        }
      }
      lap(lane.prof.verify_s);
    }

    // ---- execute ----
    std::int32_t back_jumps = 0;
    for (std::size_t i = 0; i < m.code.size(); ++i) {
      if (m.code[i].is_branch() &&
          m.code[i].target < static_cast<std::int32_t>(i)) {
        ++back_jumps;
      }
    }
    lap(lane.prof.verify_s);

    for (std::size_t ci = 0; ci < n_configs; ++ci) {
      for (std::size_t si = 0; si < n_scenarios; ++si) {
        sim::BranchPredictor predictor(scenarios[si]);
        SweepSample& sample = out[ci * n_scenarios + si];
        sample.static_insts = static_cast<std::int32_t>(m.code.size());
        sample.back_jumps = back_jumps;
        if (options.analyze) lane.registry = obs::MetricsRegistry{};
        sample.metrics = lane.engines[ci].run(m, lane.plans[ci], predictor);
        const sim::RunWork& work = lane.engines[ci].last_work();
        lane.prof.ff_periods += work.ff_periods;
        lane.prof.ff_messages += work.ff_messages;
        lane.prof.spills += work.spills;
        if (options.analyze) {
          obs::AttributeOptions ao;
          ao.detail = false;  // the sweep keeps only the category vector
          const obs::Attribution attr = obs::attribute(lane.flight, ao);
          CellAttribution& cell =
              sweep.attribution[first_cell + ci * n_scenarios + si];
          // The key invariant: attributed categories sum exactly to the
          // run's ticks. A completed run that fails it is recorded as
          // unattributed (zeros), never as a silently wrong vector.
          if (attr.valid && attr.ticks == sample.metrics.ticks) {
            cell.valid = true;
            cell.category_ticks = attr.category_ticks;
          }
          check_metrics_against_bounds(
              m.name, sweep.configs[ci].name,
              sweep_scenario_name(scenarios[si]), sample.metrics,
              lane.registry, lane.bounds[ci], lint_reports[wi]);
        }
      }
    }
    lap(lane.prof.execute_s);

    // ---- store ----
    if (store.has_value()) {
      lane.prof.cache_miss_cells += cells_per_method;
      if (mode == cache::CacheMode::ReadWrite) {
        // This sweep's cells replace whatever the record held.
        lane.record.fingerprint = cache::record_fingerprint();
        lane.record.method_name = m.name;
        lane.record.cells.resize(cells_per_method);
        for (std::size_t idx = 0; idx < cells_per_method; ++idx) {
          cache::CellRecord& cell = lane.record.cells[idx];
          cell.key = lane.keys[idx];
          cell.static_insts = out[idx].static_insts;
          cell.back_jumps = out[idx].back_jumps;
          cell.metrics = out[idx].metrics;
        }
        if (store->save(cache::record_key(body_hash[pi], pool_hash),
                        lane.record)) {
          ++lane.stored_records;
        }
      }
      lap(lane.prof.cache_s);
    }
    ++lane.prof.methods;
    lane.prof.cells += cells_per_method;
  };

  // Lanes never share an Engine (each holds a mutable scratch
  // workspace), and engines persist across the lane's methods so
  // allocation reuse still pays off. The profile keeps one entry per
  // requested lane when more than one method runs; a lane is built on
  // first use, and an unused lane's entry stays empty.
  const unsigned threads = util::resolve(options.threads);
  std::vector<std::unique_ptr<LaneState>> lanes(work.size() > 1 ? threads
                                                                : 1);
  util::parallel_for(threads, work.size(), [&](std::size_t wi,
                                               unsigned lane) {
    if (lanes[lane] == nullptr) lanes[lane] = make_lane();
    run_method(wi, *lanes[lane]);
  });

  for (const std::unique_ptr<LaneState>& lane : lanes) {
    if (lane == nullptr) {
      sweep.profile.lanes.emplace_back();
      continue;
    }
    sweep.profile.lanes.push_back(lane->prof);
    sweep.cache.stored_records += lane->stored_records;
  }

  // Dedup fill: duplicates copy their leader's cells and re-stamp the
  // name-dependent sample fields. Serial, in pick order — the output is
  // byte-identical to simulating every duplicate.
  util::Interner dedup_intern;
  for (std::size_t pi = 0; pi < picks.size(); ++pi) {
    if (leader_of[pi] == pi) continue;
    const bytecode::Method& m = *methods[picks[pi]];
    const bool is_hot = hot.contains(m.name);
    const std::size_t src = leader_of[pi] * cells_per_method;
    const std::size_t dst = pi * cells_per_method;
    const util::InternedString& mname = dedup_intern.get(m.name);
    const util::InternedString& bname = dedup_intern.get(m.benchmark);
    for (std::size_t c = 0; c < cells_per_method; ++c) {
      SweepSample& sample = sweep.samples[dst + c];
      sample = sweep.samples[src + c];
      sample.method = mname;
      sample.benchmark = bname;
      sample.is_hot = is_hot;
      // Attribution and bounds are name-independent, so a duplicate's
      // values are its leader's, exactly.
      if (options.analyze) {
        sweep.attribution[dst + c] = sweep.attribution[src + c];
        sweep.lower_bounds[dst + c] = sweep.lower_bounds[src + c];
      }
    }
    sweep.profile.lanes[0].dedup_cells += cells_per_method;
    sweep.profile.lanes[0].cells += cells_per_method;
  }

  const SweepProfile::Lane lane_total = sweep.profile.total();
  sweep.cache.hit_cells = lane_total.cache_hit_cells;
  sweep.cache.miss_cells = lane_total.cache_miss_cells;
  sweep.cache.dedup_cells = lane_total.dedup_cells;

  sweep.profile.wall_s =
      std::chrono::duration<double>(Clock::now() - sweep_t0).count();

  for (LintReport& r : lint_reports) {
    sweep.lint_errors += r.errors;
    sweep.lint_warnings += r.warnings;
    sweep.lint_findings.insert(sweep.lint_findings.end(),
                               std::make_move_iterator(r.findings.begin()),
                               std::make_move_iterator(r.findings.end()));
  }
  return sweep;
}

namespace {

bool usable(const SweepSample& s) {
  return s.metrics.fits && s.metrics.completed && !s.metrics.timed_out;
}

// Key identifying a (method, scenario) pair for Baseline normalization.
using RunKey = std::pair<std::string, int>;

std::map<RunKey, double> baseline_ipc(const Sweep& sweep) {
  std::map<RunKey, double> base;
  for (const SweepSample& s : sweep.samples) {
    if (s.config_index != 0 || !usable(s)) continue;
    base[{s.method, static_cast<int>(s.scenario)}] = s.metrics.ipc();
  }
  return base;
}

}  // namespace

std::vector<IpcRow> ipc_rows(const Sweep& sweep, Filter filter) {
  std::vector<std::vector<double>> per_config(sweep.configs.size());
  for (const SweepSample& s : sweep.samples) {
    if (!usable(s) ||
        !filter_accepts(filter, static_cast<std::size_t>(s.static_insts),
                        s.is_hot)) {
      continue;
    }
    per_config[s.config_index].push_back(s.metrics.ipc());
  }
  std::vector<IpcRow> rows;
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    rows.push_back({sweep.configs[ci].name,
                    summarize(std::move(per_config[ci]))});
  }
  return rows;
}

std::vector<FomRow> fom_rows(const Sweep& sweep, Filter filter) {
  const auto base = baseline_ipc(sweep);
  std::vector<std::vector<double>> fm(sweep.configs.size());
  std::vector<std::vector<double>> ipc(sweep.configs.size());
  for (const SweepSample& s : sweep.samples) {
    if (!usable(s) ||
        !filter_accepts(filter, static_cast<std::size_t>(s.static_insts),
                        s.is_hot)) {
      continue;
    }
    ipc[s.config_index].push_back(s.metrics.ipc());
    const auto it = base.find({s.method, static_cast<int>(s.scenario)});
    if (it == base.end() || it->second <= 0.0) continue;
    fm[s.config_index].push_back(s.metrics.ipc() / it->second);
  }
  std::vector<FomRow> rows;
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    const Summary si = summarize(ipc[ci]);
    const Summary sf = summarize(fm[ci]);
    FomRow row;
    row.config = sweep.configs[ci].name;
    row.ipc_mean = si.mean;
    row.ipc_median = si.median;
    row.fm_mean = sf.mean;
    row.fm_std = sf.std_dev;
    row.samples = sf.n;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<CorrelationRow> hetero_fom_correlations(const Sweep& sweep) {
  const auto base = baseline_ipc(sweep);
  // Hetero is the last Table 15 configuration.
  const std::size_t hetero = sweep.configs.size() - 1;
  std::vector<double> fm, total_i, executed_i, max_node, back_jumps;
  for (const SweepSample& s : sweep.samples) {
    if (s.config_index != hetero || !usable(s)) continue;
    const auto it = base.find({s.method, static_cast<int>(s.scenario)});
    if (it == base.end() || it->second <= 0.0) continue;
    fm.push_back(s.metrics.ipc() / it->second);
    total_i.push_back(s.static_insts);
    executed_i.push_back(static_cast<double>(s.metrics.distinct_fired));
    max_node.push_back(static_cast<double>(s.metrics.max_slot));
    back_jumps.push_back(s.back_jumps);
  }
  return {
      {"Total I", correlation(fm, total_i)},
      {"Executed I", correlation(fm, executed_i)},
      {"Max Node", correlation(fm, max_node)},
      {"Back Jumps", correlation(fm, back_jumps)},
  };
}

std::vector<CoverageRow> coverage_rows(const Sweep& sweep) {
  std::map<int, std::vector<double>> per_scenario;
  for (const SweepSample& s : sweep.samples) {
    if (!usable(s)) continue;
    per_scenario[static_cast<int>(s.scenario)].push_back(
        s.metrics.coverage());
  }
  std::vector<CoverageRow> rows;
  for (const auto& [scenario, values] : per_scenario) {
    CoverageRow row;
    row.scenario = scenario == 0 ? "BP-1" : (scenario == 1 ? "BP-2" : "Trace");
    row.mean_coverage = summarize(values).mean;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<NodeRatioRow> node_ratio_rows(const Sweep& sweep,
                                          Filter filter) {
  std::vector<std::vector<double>> per_config(sweep.configs.size());
  for (const SweepSample& s : sweep.samples) {
    if (!s.metrics.fits ||
        !filter_accepts(filter, static_cast<std::size_t>(s.static_insts),
                        s.is_hot)) {
      continue;
    }
    if (s.scenario != sim::BranchPredictor::Scenario::BP1) continue;
    per_config[s.config_index].push_back(
        s.metrics.nodes_per_instruction());
  }
  std::vector<NodeRatioRow> rows;
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    rows.push_back({sweep.configs[ci].name,
                    summarize(std::move(per_config[ci]))});
  }
  return rows;
}

std::vector<ParallelismRow> parallelism_rows(const Sweep& sweep) {
  std::vector<std::vector<double>> per_config(sweep.configs.size());
  for (const SweepSample& s : sweep.samples) {
    if (!usable(s)) continue;
    per_config[s.config_index].push_back(s.metrics.parallel_2plus());
  }
  std::vector<ParallelismRow> rows;
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    rows.push_back({sweep.configs[ci].name,
                    summarize(std::move(per_config[ci])).mean});
  }
  return rows;
}

std::vector<NetworkRow> network_rows(const Sweep& sweep) {
  std::vector<NetworkRow> rows(sweep.configs.size());
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    rows[ci].config = sweep.configs[ci].name;
  }
  std::vector<double> exec1(sweep.configs.size(), 0.0);
  std::vector<double> exec2(sweep.configs.size(), 0.0);
  for (const SweepSample& s : sweep.samples) {
    if (!usable(s)) continue;
    NetworkRow& row = rows[s.config_index];
    ++row.samples;
    row.total_mesh_messages +=
        static_cast<std::uint64_t>(s.metrics.mesh_messages);
    row.total_serial_messages +=
        static_cast<std::uint64_t>(s.metrics.serial_messages);
    exec1[s.config_index] +=
        static_cast<double>(s.metrics.ticks_exec_1plus);
    exec2[s.config_index] +=
        static_cast<double>(s.metrics.ticks_exec_2plus);
  }
  for (std::size_t ci = 0; ci < rows.size(); ++ci) {
    NetworkRow& row = rows[ci];
    if (row.samples == 0) continue;
    const auto n = static_cast<double>(row.samples);
    row.mean_mesh_messages =
        static_cast<double>(row.total_mesh_messages) / n;
    row.mean_serial_messages =
        static_cast<double>(row.total_serial_messages) / n;
    row.mean_ticks_exec_1plus = exec1[ci] / n;
    row.mean_ticks_exec_2plus = exec2[ci] / n;
  }
  return rows;
}

std::vector<MethodFomRow> per_method_fom(
    const Sweep& sweep, const std::vector<std::string>& methods) {
  const auto base = baseline_ipc(sweep);
  std::vector<MethodFomRow> rows;
  for (const std::string& name : methods) {
    MethodFomRow row;
    row.method = name;
    row.fm.assign(sweep.configs.size(), 0.0);
    std::vector<int> counts(sweep.configs.size(), 0);
    for (const SweepSample& s : sweep.samples) {
      if (s.method != name || !usable(s)) continue;
      row.benchmark = s.benchmark;
      row.total_insts = s.static_insts;
      if (sweep.configs[s.config_index].layout ==
          fabric::LayoutKind::Heterogeneous) {
        row.hetero_nodes = s.metrics.max_slot + 1;
      }
      const auto it = base.find({s.method, static_cast<int>(s.scenario)});
      if (it == base.end() || it->second <= 0.0) continue;
      row.fm[s.config_index] += s.metrics.ipc() / it->second;
      ++counts[s.config_index];
    }
    for (std::size_t ci = 0; ci < row.fm.size(); ++ci) {
      if (counts[ci] > 0) row.fm[ci] /= counts[ci];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace javaflow::analysis
