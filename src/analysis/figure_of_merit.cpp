#include "analysis/figure_of_merit.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include <map>

#include "analysis/bounds.hpp"
#include "cache/key.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/resolver.hpp"
#include "util/thread_pool.hpp"

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
  }
  return t;
}

std::string_view filter_name(Filter f) noexcept {
  switch (f) {
    case Filter::All: return "Filter All";
    case Filter::Filter1: return "Filter 1";
    case Filter::Filter2: return "Filter 2";
  }
  return "?";
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
  Sweep sweep;
  sweep.configs = options.configs.empty() ? sim::table15_configs()
                                          : options.configs;
  const std::unordered_set<std::string> hot(hot_methods.begin(),
                                            hot_methods.end());

  // Method selection: the substring filter (fast local iteration on one
  // method) applies before the stride, so filter + stride 1 sweeps
  // exactly the matching methods and an empty filter reproduces the
  // historical every-k-th-method picks bit for bit.
  const int stride = std::max(options.stride, 1);
  std::vector<std::size_t> picks;
  picks.reserve(methods.size() / static_cast<std::size_t>(stride) + 1);
  std::size_t eligible = 0;
  for (std::size_t mi = 0; mi < methods.size(); ++mi) {
    if (!options.method_filter.empty() &&
        methods[mi]->name.find(options.method_filter) ==
            std::string::npos) {
      continue;
    }
    if (eligible % static_cast<std::size_t>(stride) == 0) {
      picks.push_back(mi);
    }
    ++eligible;
  }

  // Each selected method owns a fixed block of config-major cells, so
  // the sample sequence is identical however the methods are scheduled.
  const std::size_t n_scenarios = options.scenarios.size();
  const std::size_t cells_per_method = sweep.configs.size() * n_scenarios;
  sweep.samples.resize(picks.size() * cells_per_method);
  if (options.attribution) {
    sweep.attribution.resize(sweep.samples.size());
  }

  // Lint / bounds debug modes: per-method reports fill pre-sized slots
  // so the flattened finding order matches the serial sweep for any
  // thread count.
  std::vector<LintReport> lint_reports(
      options.lint || options.check_bounds ? picks.size() : 0);

  // ---- result cache + corpus dedup setup (docs/PERF.md) ----

  // Telemetry hooks fire during execution only, so serving cached cells
  // would silently under-count the registries/tracer: force the cache
  // off for instrumented sweeps.
  const bool instrumented = options.collect_metrics ||
                            options.attribution ||
                            options.engine.metrics != nullptr ||
                            options.engine.tracer != nullptr ||
                            options.engine.flight != nullptr;
  cache::CacheMode mode = cache::resolve_cache_mode(options.cache);
  if (instrumented && mode != cache::CacheMode::Off) {
    std::fprintf(stderr,
                 "javaflow-cache: telemetry enabled, disabling the result "
                 "cache for this sweep\n");
    mode = cache::CacheMode::Off;
  }
  std::optional<cache::CacheStore> store;
  if (mode != cache::CacheMode::Off) {
    store.emplace(cache::resolve_cache_dir(options.cache_dir));
    sweep.cache.dir = store->dir();
  }
  sweep.cache.mode = std::string(cache::cache_mode_name(mode));

  // Lint / bounds debug modes report findings per picked method, so
  // dedup (which skips duplicate picks entirely) would drop duplicates'
  // findings — both force it off.
  const bool dedup =
      options.dedup && !options.lint && !options.check_bounds;

  // Body digests drive both the cache keys and dedup grouping. Hashing
  // the whole corpus is a few milliseconds — noise next to a single cell.
  const bool keyed = store.has_value() || dedup;
  std::vector<cache::Hash128> body_hash(keyed ? picks.size() : 0);
  for (std::size_t pi = 0; pi < body_hash.size(); ++pi) {
    body_hash[pi] = cache::hash_method_body(*methods[picks[pi]]);
  }
  cache::Hash128 pool_hash;
  cache::Hash128 engine_hash;
  std::vector<cache::Hash128> config_hash;
  if (store.has_value()) {
    pool_hash = cache::hash_pool(pool);
    engine_hash = cache::hash_engine_options(
        options.engine, sim::resolve_scheduler(sim::SchedulerKind::Auto));
    config_hash.reserve(sweep.configs.size());
    for (const sim::MachineConfig& cfg : sweep.configs) {
      config_hash.push_back(cache::hash_config(cfg));
    }
  }

  // Corpus dedup: the first pick with a given body digest is the
  // leader and is the only one simulated; duplicates copy its cells in
  // a serial post-pass below. `work` preserves pick order, so sample
  // indexing stays deterministic for every thread count.
  std::vector<std::size_t> leader_of(picks.size());
  std::vector<std::size_t> work;
  work.reserve(picks.size());
  if (dedup) {
    std::map<cache::Hash128, std::size_t> first_with_body;
    for (std::size_t pi = 0; pi < picks.size(); ++pi) {
      const auto [it, inserted] =
          first_with_body.try_emplace(body_hash[pi], pi);
      leader_of[pi] = it->second;
      if (inserted) work.push_back(pi);
    }
  } else {
    for (std::size_t pi = 0; pi < picks.size(); ++pi) {
      leader_of[pi] = pi;
      work.push_back(pi);
    }
  }

  // Everything a worker lane owns privately: engines (whose workspaces
  // amortize per-run allocations across the lane's methods), fabrics for
  // the placement phase, a telemetry registry, cache scratch buffers,
  // and phase timers. Nothing here is touched by another thread while
  // the sweep runs.
  struct LaneState {
    std::vector<sim::Engine> engines;
    std::vector<fabric::Fabric> fabrics;
    obs::MetricsRegistry metrics;
    // check_bounds scratch: the lane's engines write each run's counters
    // here so the per-run buffer high-water marks can be checked against
    // the static bound; reset before every run. When collect_metrics is
    // also on, each run's counters are merged into `metrics` afterwards
    // (the merge is commutative, so the aggregate is unchanged).
    obs::MetricsRegistry bounds_reg;
    // Attribution scratch: each engine run resets and refills it; the
    // cell's category vector is extracted right after the run.
    obs::FlightRecorder flight;
    SweepProfile::Lane prof;
    // Plan-lowering scratch (route/edge staging grows monotonically) and
    // the lane's name interner: each method's cells share one heap
    // string per name instead of twelve copies.
    sim::ExecPlanBuilder plan_builder;
    util::Interner intern;
    std::size_t stored_records = 0;
    std::size_t verify_mismatch_cells = 0;
  };

  // Per-work-item precompute handed from the prepare phase to the
  // execute phase. Built by whichever lane draws the item in phase A,
  // read (possibly by a DIFFERENT lane) in phase B — the thread-pool
  // barrier between the phases orders the hand-off, and phase B treats
  // everything here as read-only except the cache record upsert.
  struct Precomp {
    bool have_record = false;
    std::size_t cached_cells = 0;
    bool full_hit = false;  // every cell served from cache (not verify)
    std::vector<const cache::CellRecord*> cell_hits;
    cache::MethodRecord record;
    fabric::DataflowGraph graph;
    std::vector<fabric::Placement> placements;
    std::vector<sim::ExecPlan> plans;  // one per config unless a full hit
  };

  auto make_lane = [&] {
    auto lane = std::make_unique<LaneState>();
    lane->fabrics.reserve(sweep.configs.size());
    lane->engines.reserve(sweep.configs.size());
    sim::EngineOptions engine_options = options.engine;
    if (options.collect_metrics) engine_options.metrics = &lane->metrics;
    if (options.check_bounds) engine_options.metrics = &lane->bounds_reg;
    if (options.attribution) engine_options.flight = &lane->flight;
    for (const sim::MachineConfig& cfg : sweep.configs) {
      lane->fabrics.emplace_back(cfg.fabric_options());
      lane->engines.emplace_back(cfg, engine_options);
    }
    return lane;
  };

  using Clock = std::chrono::steady_clock;
  const auto sweep_t0 = Clock::now();

  // Opt-in progress heartbeat: at most ~one stderr line a second (plus a
  // final one), claimed by whichever lane crosses the interval first.
  // With dedup, the denominator is the deduplicated work list; with the
  // cache on, the line also carries live hit/miss/dedup cell counts. The
  // ETA comes from the completed-cell rate across all lanes (cells, not
  // methods, because a full cache hit finishes a method's cells orders
  // of magnitude faster than the compute path), and every line is
  // flushed so CI log buffering can't hold progress back.
  std::atomic<std::size_t> methods_done{0};
  std::atomic<std::size_t> cells_done{0};
  std::atomic<std::int64_t> last_beat_ms{0};
  std::atomic<std::size_t> hb_hit_cells{0};
  std::atomic<std::size_t> hb_miss_cells{0};
  const std::size_t cells_planned = work.size() * cells_per_method;
  const std::size_t dedup_cells_planned =
      (picks.size() - work.size()) * cells_per_method;
  auto heartbeat = [&] {
    if (!options.heartbeat) return;
    const std::size_t done = methods_done.fetch_add(1) + 1;
    const std::size_t cells =
        cells_done.fetch_add(cells_per_method) + cells_per_method;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - sweep_t0).count();
    const auto now_ms = static_cast<std::int64_t>(elapsed * 1000.0);
    std::int64_t last = last_beat_ms.load(std::memory_order_relaxed);
    if (now_ms - last < 1000 && done != work.size()) return;
    if (!last_beat_ms.compare_exchange_strong(last, now_ms)) return;
    const double cell_rate =
        elapsed > 0.0 ? static_cast<double>(cells) / elapsed : 0.0;
    const double eta =
        cell_rate > 0.0
            ? static_cast<double>(cells_planned - cells) / cell_rate
            : 0.0;
    if (mode != cache::CacheMode::Off) {
      std::fprintf(stderr,
                   "sweep: %zu/%zu methods (%.0f cells/s, ETA %.0f s, "
                   "cache %zu hit / %zu miss / %zu dedup cells)\n",
                   done, work.size(), cell_rate, eta,
                   hb_hit_cells.load(std::memory_order_relaxed),
                   hb_miss_cells.load(std::memory_order_relaxed),
                   dedup_cells_planned);
    } else {
      std::fprintf(stderr,
                   "sweep: %zu/%zu methods (%.0f cells/s, ETA %.0f s)\n",
                   done, work.size(), cell_rate, eta);
    }
    std::fflush(stderr);
  };

  // Phase A, one task per (deduplicated) method: probe the cache, and
  // for anything not fully served, build the dataflow graph, the
  // per-config placements, and the per-config execution plans — each
  // one read-only, shared by every worker lane and both scenarios in
  // phase B. A full cache hit builds the static structures only when a
  // static-check mode (lint / bounds) needs them — never the plans, so
  // the warm-cache fast path stays plan-free.
  const bool profile = options.profile;
  std::vector<std::unique_ptr<Precomp>> pre(work.size());
  auto prepare_method = [&](std::size_t wi, LaneState& lane) {
    auto t = profile ? Clock::now() : Clock::time_point{};
    auto lap = [&](double& acc) {
      if (!profile) return;
      const auto now = Clock::now();
      acc += std::chrono::duration<double>(now - t).count();
      t = now;
    };

    const std::size_t pi = work[wi];
    const bytecode::Method& m = *methods[picks[pi]];
    pre[wi] = std::make_unique<Precomp>();
    Precomp& p = *pre[wi];

    // ---- cache probe ----
    if (store.has_value()) {
      p.cell_hits.assign(cells_per_method, nullptr);
      p.have_record =
          store->load(cache::record_key(body_hash[pi], pool_hash),
                      cache::record_fingerprint(), p.record);
      if (p.have_record) {
        for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
          for (std::size_t si = 0; si < n_scenarios; ++si) {
            const cache::Hash128 key = cache::cell_key(
                body_hash[pi], pool_hash, config_hash[ci], engine_hash,
                options.scenarios[si]);
            for (const cache::CellRecord& cell : p.record.cells) {
              if (cell.key == key) {
                p.cell_hits[ci * n_scenarios + si] = &cell;
                ++p.cached_cells;
                break;
              }
            }
          }
        }
      }
      p.full_hit = p.cached_cells == cells_per_method &&
                   mode != cache::CacheMode::Verify;
      lap(lane.prof.cache_s);
    }

    const bool need_static =
        !p.full_hit || options.lint || options.check_bounds;
    if (!need_static) return;
    p.graph = fabric::build_dataflow_graph(m, pool);
    lap(lane.prof.resolve_s);
    p.placements.reserve(sweep.configs.size());
    for (const fabric::Fabric& f : lane.fabrics) {
      p.placements.push_back(fabric::load_method(f, m));
    }
    lap(lane.prof.place_s);
    if (!p.full_hit) {
      p.plans.reserve(sweep.configs.size());
      for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
        p.plans.push_back(lane.plan_builder.build(
            m, p.graph, &p.placements[ci], sweep.configs[ci]));
      }
      lap(lane.prof.plan_s);
    }
  };

  // Phase B, one task per (deduplicated) method: serve full cache hits
  // from the record, or run every config × scenario cell on this lane's
  // engines from the shared pre-lowered plans. The item's precompute
  // block is freed as soon as its cells are done.
  auto run_method = [&](std::size_t wi, LaneState& lane) {
    auto t = profile ? Clock::now() : Clock::time_point{};
    auto lap = [&](double& acc) {
      if (!profile) return;
      const auto now = Clock::now();
      acc += std::chrono::duration<double>(now - t).count();
      t = now;
    };

    const std::size_t pi = work[wi];
    const bytecode::Method& m = *methods[picks[pi]];
    const bool is_hot = hot.contains(m.name);
    const util::InternedString& mname = lane.intern.get(m.name);
    const util::InternedString& bname = lane.intern.get(m.benchmark);
    SweepSample* out = sweep.samples.data() + pi * cells_per_method;
    Precomp& p = *pre[wi];

    // Full hit outside verify mode: serve every cell from the record.
    // (Lint and bounds debug modes still check the phase-A graph +
    // placements — they are static checks — but execution stays
    // skipped; bounds can then only assert the ticks direction, since
    // no registry ran.)
    if (p.full_hit) {
      if (options.lint) {
        const bytecode::VerifyResult vr = bytecode::verify(m, pool);
        lint_graph(m, pool, vr, p.graph, options.lint_options,
                   lint_reports[pi]);
        for (std::size_t ci = 0; ci < lane.fabrics.size(); ++ci) {
          lint_placement(m, lane.fabrics[ci], p.placements[ci], vr,
                         options.lint_options, lint_reports[pi]);
        }
      }
      if (options.check_bounds) {
        for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
          const MethodBounds bounds =
              compute_bounds(m, p.graph, lane.fabrics[ci],
                             p.placements[ci], sweep.configs[ci]);
          for (std::size_t si = 0; si < n_scenarios; ++si) {
            check_metrics_against_bounds(
                m.name, sweep.configs[ci].name,
                sweep_scenario_name(options.scenarios[si]),
                p.cell_hits[ci * n_scenarios + si]->metrics,
                nullptr, bounds, lint_reports[pi]);
          }
        }
      }
      lap(lane.prof.verify_s);
      for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
        for (std::size_t si = 0; si < n_scenarios; ++si) {
          const cache::CellRecord& cell =
              *p.cell_hits[ci * n_scenarios + si];
          SweepSample& sample = out[ci * n_scenarios + si];
          sample.method = mname;
          sample.benchmark = bname;
          sample.config_index = ci;
          sample.scenario = options.scenarios[si];
          sample.static_insts = cell.static_insts;
          sample.back_jumps = cell.back_jumps;
          sample.is_hot = is_hot;
          sample.metrics = cell.metrics;
        }
      }
      lap(lane.prof.cache_s);
      lane.prof.cache_hit_cells += cells_per_method;
      hb_hit_cells.fetch_add(cells_per_method, std::memory_order_relaxed);
      ++lane.prof.methods;
      lane.prof.cells += cells_per_method;
      pre[wi].reset();
      heartbeat();
      return;
    }

    // ---- compute path ----
    std::int32_t back_jumps = 0;
    for (std::size_t i = 0; i < m.code.size(); ++i) {
      if (m.code[i].is_branch() &&
          m.code[i].target < static_cast<std::int32_t>(i)) {
        ++back_jumps;
      }
    }
    if (options.lint) {
      const bytecode::VerifyResult vr = bytecode::verify(m, pool);
      lint_graph(m, pool, vr, p.graph, options.lint_options,
                 lint_reports[pi]);
      for (std::size_t ci = 0; ci < lane.fabrics.size(); ++ci) {
        lint_placement(m, lane.fabrics[ci], p.placements[ci], vr,
                       options.lint_options, lint_reports[pi]);
      }
    }
    std::vector<MethodBounds> bounds;
    if (options.check_bounds) {
      bounds.reserve(sweep.configs.size());
      for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
        // The analyzer reads the same lowered image the engine runs.
        bounds.push_back(compute_bounds(m, p.plans[ci]));
      }
    }
    lap(lane.prof.verify_s);

    for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
      for (std::size_t si = 0; si < n_scenarios; ++si) {
        sim::BranchPredictor predictor(options.scenarios[si]);
        SweepSample& sample = out[ci * n_scenarios + si];
        sample.method = mname;
        sample.benchmark = bname;
        sample.config_index = ci;
        sample.scenario = options.scenarios[si];
        sample.static_insts = static_cast<std::int32_t>(m.code.size());
        sample.back_jumps = back_jumps;
        sample.is_hot = is_hot;
        if (options.check_bounds) lane.bounds_reg = obs::MetricsRegistry{};
        sample.metrics = lane.engines[ci].run(m, p.plans[ci], predictor);
        if (options.attribution) {
          obs::AttributeOptions ao;
          ao.mesh_width = sweep.configs[ci].width;
          ao.collapsed = sweep.configs[ci].collapsed();
          ao.detail = false;  // the sweep keeps only the category vector
          const obs::Attribution attr = obs::attribute(lane.flight, ao);
          CellAttribution& cell =
              sweep.attribution[pi * cells_per_method +
                                ci * n_scenarios + si];
          // The key invariant: attributed categories sum exactly to the
          // run's ticks. A completed run that fails it is recorded as
          // unattributed (zeros), never as a silently wrong vector.
          if (attr.valid && attr.ticks == sample.metrics.ticks) {
            cell.valid = true;
            cell.category_ticks = attr.category_ticks;
          }
        }
        if (options.check_bounds) {
          check_metrics_against_bounds(
              m.name, sweep.configs[ci].name,
              sweep_scenario_name(options.scenarios[si]), sample.metrics,
              &lane.bounds_reg, bounds[ci], lint_reports[pi]);
          if (options.collect_metrics) lane.metrics.merge(lane.bounds_reg);
        }
      }
    }
    lap(lane.prof.execute_s);

    // ---- verify / store ----
    if (store.has_value()) {
      bool verify_clean = true;
      if (mode == cache::CacheMode::Verify) {
        for (std::size_t idx = 0; idx < cells_per_method; ++idx) {
          const cache::CellRecord* cell = p.cell_hits[idx];
          if (cell == nullptr) continue;
          const SweepSample& fresh = out[idx];
          if (cell->metrics != fresh.metrics ||
              cell->static_insts != fresh.static_insts ||
              cell->back_jumps != fresh.back_jumps) {
            ++lane.verify_mismatch_cells;
            verify_clean = false;
            std::fprintf(
                stderr,
                "javaflow-cache: VERIFY MISMATCH %s [%s, scenario %d] — "
                "cached record differs from fresh execution; repairing\n",
                m.name.c_str(),
                sweep.configs[idx / n_scenarios].name.c_str(),
                static_cast<int>(options.scenarios[idx % n_scenarios]));
          }
        }
        lane.prof.cache_hit_cells += p.cached_cells;
        lane.prof.cache_miss_cells += cells_per_method - p.cached_cells;
        hb_hit_cells.fetch_add(p.cached_cells, std::memory_order_relaxed);
        hb_miss_cells.fetch_add(cells_per_method - p.cached_cells,
                                std::memory_order_relaxed);
      } else {
        lane.prof.cache_miss_cells += cells_per_method;
        hb_miss_cells.fetch_add(cells_per_method,
                                std::memory_order_relaxed);
      }

      // Verify on an intact, fully cached method has nothing to write;
      // skipping the save keeps repeated verify runs read-only.
      const bool verify_dirty =
          mode == cache::CacheMode::Verify &&
          (!verify_clean || p.cached_cells != cells_per_method);
      if (mode == cache::CacheMode::ReadWrite || verify_dirty) {
        // Upsert this sweep's cells into the record, preserving cells
        // other sweep contexts (configs, tick budgets) put
        // there. Verify mode repairs mismatching entries by the same
        // path, since fresh values overwrite matching keys.
        cache::MethodRecord next;
        next.fingerprint = cache::record_fingerprint();
        next.method_name = m.name;
        if (p.have_record) next.cells = p.record.cells;
        for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
          for (std::size_t si = 0; si < n_scenarios; ++si) {
            const SweepSample& fresh = out[ci * n_scenarios + si];
            cache::CellRecord cell;
            cell.key = cache::cell_key(body_hash[pi], pool_hash,
                                       config_hash[ci], engine_hash,
                                       options.scenarios[si]);
            cell.static_insts = fresh.static_insts;
            cell.back_jumps = fresh.back_jumps;
            cell.metrics = fresh.metrics;
            bool replaced = false;
            for (cache::CellRecord& existing : next.cells) {
              if (existing.key == cell.key) {
                existing = cell;
                replaced = true;
                break;
              }
            }
            if (!replaced) next.cells.push_back(cell);
          }
        }
        if (store->save(cache::record_key(body_hash[pi], pool_hash),
                        next)) {
          ++lane.stored_records;
        }
      }
      lap(lane.prof.cache_s);
    }
    ++lane.prof.methods;
    lane.prof.cells += cells_per_method;
    pre[wi].reset();
    heartbeat();
  };

  const unsigned threads = util::ThreadPool::resolve_clamped(
      options.threads, options.allow_oversubscribe);
  std::vector<std::unique_ptr<LaneState>> lanes;
  if (threads <= 1 || work.size() <= 1) {
    lanes.push_back(make_lane());
    for (std::size_t wi = 0; wi < work.size(); ++wi) {
      prepare_method(wi, *lanes[0]);
    }
    for (std::size_t wi = 0; wi < work.size(); ++wi) {
      run_method(wi, *lanes[0]);
    }
  } else {
    util::ThreadPool workers(threads);
    // Per-lane state: lanes never share an Engine (each holds a mutable
    // scratch workspace), and engines persist across the lane's methods
    // so allocation reuse still pays off. The pool barrier between the
    // two parallel_for calls publishes every phase-A Precomp (plans
    // included) before any phase-B lane reads one — an item may land on
    // a different lane in each phase, and phase B only ever reads the
    // shared plans.
    lanes.resize(workers.size());
    workers.parallel_for(work.size(), [&](std::size_t wi, unsigned lane) {
      if (lanes[lane] == nullptr) lanes[lane] = make_lane();
      prepare_method(wi, *lanes[lane]);
    });
    workers.parallel_for(work.size(), [&](std::size_t wi, unsigned lane) {
      if (lanes[lane] == nullptr) lanes[lane] = make_lane();
      run_method(wi, *lanes[lane]);
    });
  }

  for (const std::unique_ptr<LaneState>& lane : lanes) {
    if (lane == nullptr) {
      sweep.profile.lanes.emplace_back();
      continue;
    }
    sweep.profile.lanes.push_back(lane->prof);
    sweep.cache.stored_records += lane->stored_records;
    sweep.cache.verify_mismatch_cells += lane->verify_mismatch_cells;
    if (options.collect_metrics) sweep.metrics.merge(lane->metrics);
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
      // Attribution is name-independent, so a duplicate's vector is its
      // leader's vector, exactly.
      if (options.attribution) {
        sweep.attribution[dst + c] = sweep.attribution[src + c];
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

std::vector<AttributionRow> attribution_rows(const Sweep& sweep) {
  std::vector<AttributionRow> rows(sweep.configs.size());
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    rows[ci].config = sweep.configs[ci].name;
  }
  if (sweep.attribution.size() != sweep.samples.size()) return rows;
  for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
    const SweepSample& s = sweep.samples[i];
    const CellAttribution& cell = sweep.attribution[i];
    if (!usable(s) || !cell.valid) continue;
    AttributionRow& row = rows[s.config_index];
    ++row.samples;
    row.total_ticks += s.metrics.ticks;
    for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
      row.category_ticks[c] += cell.category_ticks[c];
    }
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
