// sweep_cold and sweep_warm: the Chapter 7 corpus sweep through
// analysis::run_sweep, cold (cache off) and warm (served from a result
// cache that set-up filled). The traced run replays the same sweep by
// calling each layer's public functions directly and times every call.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/explain.hpp"
#include "analysis/figure_of_merit.hpp"
#include "bytecode/verifier.hpp"
#include "cache/hash.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "common.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/loader.hpp"
#include "obs/snapshot.hpp"
#include "sim/plan.hpp"
#include "util/rng.hpp"
#include "workloads/corpus.hpp"

namespace jfbench {
namespace {

using namespace javaflow;

constexpr int kSnapshotStride = 32;  // bench/reference_stride32.jfs

// Set-ups per process; setup_s is their median. A cold set-up builds the
// corpus (about 25 ms), a fill set-up also sweeps into a fresh cache
// (about 5 s). An untraced cold run sets up kColdSetupsPerPass more times
// before each pass: the host's speed drifts over seconds, and setup_s
// should sample the whole run, not its first quarter second.
constexpr int kColdSetups = 9;
constexpr int kColdSetupsPerPass = 3;
constexpr int kFillSetups = 3;

// Paper Table 22 Figure of Merit, Filter All, in table15_configs() order.
constexpr double kTable22Fm[] = {1.00, 0.96, 0.88, 0.75, 0.58, 0.47};

struct Inputs {
  workloads::Corpus corpus;
  std::vector<const bytecode::Method*> methods;  // in sweep order
  std::vector<std::string> hot;  // Filter 2: the hand-written kernels
};

// The dissertation's 1605-method corpus (the one every table binary
// sweeps), in a sweep order drawn from `seed`. The seed moves dedup
// leaders, sample order and workspace reuse but not the amount of
// simulated work, which a seeded corpus would change by about ±15 %.
std::unique_ptr<Inputs> build_inputs(std::uint64_t seed, Tracer& tr) {
  auto in = std::make_unique<Inputs>();
  {
    Tracer::Scope span(tr, "workloads.corpus_build");
    in->corpus = workloads::make_corpus({});
  }
  for (const bytecode::Method& m : in->corpus.program.methods) {
    in->methods.push_back(&m);
  }
  util::SplitMix64 rng(seed);
  for (std::size_t i = in->methods.size(); i > 1; --i) {
    std::swap(in->methods[i - 1], in->methods[rng.below(i)]);
  }
  for (std::size_t i = 0; i < in->corpus.kernel_methods; ++i) {
    in->hot.push_back(in->corpus.program.methods[i].name);
  }
  return in;
}

// What a table binary runs, minus the environment: one thread, and the
// cache either off or pointed at the benchmark's own directory.
analysis::Sweep sweep(const Inputs& in, cache::CacheMode mode,
                      const std::string& cache_dir) {
  analysis::SweepOptions o;
  o.threads = 1;
  o.cache = mode;
  o.cache_dir = cache_dir;
  return analysis::run_sweep(in.methods, in.corpus.program.pool, in.hot, o);
}

void hash_metrics(cache::Hasher& h, const sim::RunMetrics& m) {
  for (const bool flag : {m.fits, m.completed, m.timed_out, m.exception}) {
    h.boolean(flag);
  }
  for (const std::int64_t v :
       {m.ticks, m.mesh_cycles, m.instructions_fired,
        std::int64_t{m.distinct_fired}, std::int64_t{m.static_size},
        std::int64_t{m.max_slot}, m.mesh_messages, m.serial_messages,
        m.ticks_exec_1plus, m.ticks_exec_2plus}) {
    h.i64(v);
  }
}

// Digest of every sample field, in sweep order. Two processes compare
// their sweeps through it (the warm passes against the fill).
std::string samples_digest(const analysis::Sweep& s) {
  cache::Hasher h;
  for (const analysis::SweepSample& x : s.samples) {
    h.str(x.method.str());
    h.str(x.benchmark.str());
    h.u64(x.config_index);
    h.i64(static_cast<std::int64_t>(x.scenario));
    h.i64(static_cast<std::int64_t>(x.static_insts));
    h.i64(static_cast<std::int64_t>(x.back_jumps));
    h.boolean(x.is_hot);
    hash_metrics(h, x.metrics);
  }
  return cache::to_hex(h.digest());
}

// Model outputs: per-config mean Figure of Merit and its mean absolute
// error against the paper's Table 22 column.
void model_outputs(const analysis::Sweep& s, JsonObject& layers) {
  const std::vector<analysis::FomRow> rows =
      analysis::fom_rows(s, analysis::Filter::All);
  double err = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    layers.num("analysis.fm_mean." + rows[i].config, rows[i].fm_mean);
    if (i < std::size(kTable22Fm)) {
      err += std::abs(rows[i].fm_mean - kTable22Fm[i]);
    }
  }
  layers.num("analysis.fm_error_vs_table22",
             rows.empty() ? 0.0 : err / static_cast<double>(rows.size()));
}

// run_sweep's own wall time minus its per-phase times (verify, resolve,
// place, lower, execute, cache), from the same call. Subtracting the
// replay's spans instead would subtract a second, separately timed pass
// and measure host drift rather than orchestration.
double orchestration_s(const analysis::Sweep& s) {
  const analysis::SweepProfile::Lane t = s.profile.total();
  return s.profile.wall_s - t.verify_s - t.resolve_s - t.place_s - t.plan_s -
         t.execute_s - t.cache_s;
}

// Body-hash dedup exactly as run_sweep does it: the first method with a
// given body is simulated, later ones copy its cells.
struct Dedup {
  std::vector<cache::Hash128> body;
  std::vector<std::size_t> leader_of;
};

Dedup dedup_methods(const Inputs& in, Tracer& tr) {
  Dedup d;
  std::map<cache::Hash128, std::size_t> first;
  for (std::size_t i = 0; i < in.methods.size(); ++i) {
    {
      Tracer::Scope span(tr, "cache.key");
      d.body.push_back(cache::hash_method_body(*in.methods[i]));
    }
    d.leader_of.push_back(first.try_emplace(d.body.back(), i).first->second);
  }
  return d;
}

// ---- traced replay of the cold sweep ----

struct ColdReplay {
  std::vector<sim::RunMetrics> cells;  // one per sample, in sweep order
  bool all_verify = true;
  std::int64_t serial_messages = 0;
  std::int64_t mesh_messages = 0;
  std::int64_t instructions_fired = 0;
};

ColdReplay replay_cold(const Inputs& in, Tracer& tr) {
  Tracer::Scope root(tr, "bench.replay");
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  const auto scenarios = analysis::SweepOptions{}.scenarios;
  const std::size_t per_method = configs.size() * scenarios.size();
  std::vector<fabric::Fabric> fabrics;
  std::vector<sim::Engine> engines;
  for (const sim::MachineConfig& cfg : configs) {
    fabrics.emplace_back(cfg.fabric_options());
    engines.emplace_back(cfg);
  }
  sim::ExecPlanBuilder builder;
  const bytecode::ConstantPool& pool = in.corpus.program.pool;

  ColdReplay out;
  out.cells.resize(in.methods.size() * per_method);
  const Dedup d = dedup_methods(in, tr);
  std::vector<fabric::Placement> placements(configs.size());
  std::vector<sim::ExecPlan> plans(configs.size());
  for (std::size_t mi = 0; mi < in.methods.size(); ++mi) {
    if (d.leader_of[mi] != mi) continue;
    const bytecode::Method& m = *in.methods[mi];
    {
      Tracer::Scope span(tr, "bytecode.verify");
      out.all_verify = bytecode::verify(m, pool).ok && out.all_verify;
    }
    fabric::DataflowGraph graph;
    {
      Tracer::Scope span(tr, "fabric.resolve");
      graph = fabric::build_dataflow_graph(m, pool);
    }
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      Tracer::Scope span(tr, "fabric.place");
      placements[ci] = fabric::load_method(fabrics[ci], m);
    }
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      Tracer::Scope span(tr, "sim.plan_lower");
      plans[ci] = builder.build(m, graph, &placements[ci], configs[ci]);
    }
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      for (std::size_t si = 0; si < scenarios.size(); ++si) {
        sim::BranchPredictor predictor(scenarios[si]);
        sim::RunMetrics& cell =
            out.cells[mi * per_method + ci * scenarios.size() + si];
        {
          Tracer::Scope span(tr, "sim.execute");
          cell = engines[ci].run(m, plans[ci], predictor);
        }
        out.serial_messages += cell.serial_messages;
        out.mesh_messages += cell.mesh_messages;
        out.instructions_fired += cell.instructions_fired;
      }
    }
  }
  // Duplicates take their leader's cells, as run_sweep's dedup fill does.
  for (std::size_t mi = 0; mi < in.methods.size(); ++mi) {
    const std::size_t lead = d.leader_of[mi];
    for (std::size_t c = 0; lead != mi && c < per_method; ++c) {
      out.cells[mi * per_method + c] = out.cells[lead * per_method + c];
    }
  }
  return out;
}

// ---- traced replay of the warm sweep ----

// Key derivation plus record loads, as run_sweep's cache probe does
// them; returns the number of cells whose cached metrics match `ref`.
std::size_t replay_warm(const Inputs& in, const std::string& cache_dir,
                        const analysis::Sweep& ref, Tracer& tr) {
  Tracer::Scope root(tr, "bench.replay");
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  const auto scenarios = analysis::SweepOptions{}.scenarios;
  const std::size_t per_method = configs.size() * scenarios.size();
  cache::Hash128 pool_hash;
  cache::Hash128 engine_hash;
  std::vector<cache::Hash128> config_hash;
  {
    Tracer::Scope span(tr, "cache.key");
    pool_hash = cache::hash_pool(in.corpus.program.pool);
    engine_hash = cache::hash_engine_options(
        sim::EngineOptions{}, sim::resolve_scheduler(sim::SchedulerKind::Auto));
    for (const sim::MachineConfig& cfg : configs) {
      config_hash.push_back(cache::hash_config(cfg));
    }
  }
  const cache::CacheStore store(cache_dir);
  const Dedup d = dedup_methods(in, tr);
  std::size_t matched = 0;
  std::vector<cache::Hash128> keys(per_method);
  for (std::size_t mi = 0; mi < in.methods.size(); ++mi) {
    if (d.leader_of[mi] != mi) continue;
    cache::Hash128 rk;
    {
      Tracer::Scope span(tr, "cache.key");
      rk = cache::record_key(d.body[mi], pool_hash);
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        for (std::size_t si = 0; si < scenarios.size(); ++si) {
          keys[ci * scenarios.size() + si] =
              cache::cell_key(d.body[mi], pool_hash, config_hash[ci],
                              engine_hash, scenarios[si]);
        }
      }
    }
    cache::MethodRecord rec;
    bool loaded = false;
    {
      Tracer::Scope span(tr, "cache.load");
      loaded = store.load(rk, cache::record_fingerprint(), rec);
    }
    for (std::size_t c = 0; loaded && c < per_method; ++c) {
      for (const cache::CellRecord& cell : rec.cells) {
        if (cell.key == keys[c] &&
            cell.metrics == ref.samples[mi * per_method + c].metrics) {
          ++matched;
          break;
        }
      }
    }
  }
  return matched;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// The committed stride-32 attribution snapshot, regenerated from the
// corpus in its own order.
void snapshot_check(const workloads::Corpus& corpus, const Options& opt,
                    Checks& checks, JsonObject& digests) {
  analysis::SnapshotBuildOptions so;
  so.stride = kSnapshotStride;
  const std::string bytes =
      obs::serialize_snapshot(analysis::build_snapshot(corpus, so));
  const std::uint64_t got = obs::snapshot_digest(bytes);
  const std::uint64_t want =
      obs::snapshot_digest(read_file(opt.reference_snapshot));
  digests.str("stride32_snapshot", hex64(got));
  digests.str("reference_snapshot", hex64(want));
  checks.expect("stride-32 snapshot matches the committed reference",
                want != 0 && got == want);
}

// `count` corpus builds; returns the last build's inputs.
std::unique_ptr<Inputs> cold_setups(const Options& opt, int count, Tracer& tr,
                                    std::vector<double>& seconds) {
  std::unique_ptr<Inputs> in;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    in.reset();
    in = build_inputs(opt.seed, tr);
    seconds.push_back(seconds_since(t0));
  }
  return in;
}

std::size_t cell_count(const Inputs& in) {
  return in.methods.size() * sim::table15_configs().size() *
         analysis::SweepOptions{}.scenarios.size();
}

}  // namespace

// sweep_warm's set-up: kFillSetups times, build the corpus and fill a
// fresh <work_dir>/cache with a full sweep. The last fill stays.
int run_sweep_fill(const Options& opt) {
  const std::string cache_dir = opt.work_dir + "/cache";
  Tracer tr(opt.run_id, false);
  std::vector<double> setup_s;
  std::vector<double> fill_s;
  analysis::Sweep fill;
  for (int i = 0; i < kFillSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Inputs> in = build_inputs(opt.seed, tr);
    std::filesystem::remove_all(cache_dir);
    const Clock::time_point tf = Clock::now();
    fill = sweep(*in, cache::CacheMode::ReadWrite, cache_dir);
    fill_s.push_back(seconds_since(tf));
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("%s\n", JsonObject()
                          .str("workload", opt.workload)
                          .nums("setup_s", setup_s)
                          .nums("fill_s", fill_s)
                          .str("sweep_samples", samples_digest(fill))
                          .integer("peak_rss_kb", peak_rss_kb())
                          .dump()
                          .c_str());
  return 0;
}

int run_sweep_workload(const Options& opt) {
  const bool warm = opt.workload == "sweep_warm";
  const std::string cache_dir = opt.work_dir + "/cache";
  Checks checks;
  JsonObject out;
  JsonObject digests;
  out.str("workload", opt.workload).integer("seed", static_cast<std::int64_t>(opt.seed));

  Tracer tr(opt.run_id, opt.trace);
  // The warm process builds the corpus once; its set-up, the fill, ran in
  // a process of its own.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs =
      warm ? build_inputs(opt.seed, tr)
           : cold_setups(opt, kColdSetups, tr, setup_s);
  const std::size_t cells = cell_count(*inputs);
  out.integer("cells", static_cast<std::int64_t>(cells));

  if (!opt.reference_snapshot.empty() && !warm) {
    snapshot_check(inputs->corpus, opt, checks, digests);
  }

  if (!opt.trace) {
    // Untraced: repeat the sweep until the run is long enough, and at
    // least three times.
    std::vector<double> pass_s;
    std::string first_digest;
    bool same_digest = true;
    bool cache_as_expected = true;
    const Clock::time_point t_run = Clock::now();
    while (pass_s.size() < 3 || seconds_since(t_run) < opt.seconds) {
      if (!warm) {
        inputs.reset();
        inputs = cold_setups(opt, kColdSetupsPerPass, tr, setup_s);
      }
      const Clock::time_point t0 = Clock::now();
      const analysis::Sweep s =
          warm ? sweep(*inputs, cache::CacheMode::Read, cache_dir)
               : sweep(*inputs, cache::CacheMode::Off, "");
      pass_s.push_back(seconds_since(t0));
      const std::string dg = samples_digest(s);
      if (pass_s.size() == 1) first_digest = dg;
      same_digest = same_digest && dg == first_digest;
      if (warm) {
        cache_as_expected = cache_as_expected && s.cache.miss_cells == 0 &&
                            s.cache.hit_cells + s.cache.dedup_cells == cells;
      } else {
        cache_as_expected = cache_as_expected && s.cache.mode == "off" &&
                            s.samples.size() == cells;
      }
    }
    checks.expect("every pass gives the same samples", same_digest);
    checks.expect(warm ? "every warm cell is served from the cache"
                       : "cache off and one sample per cell",
                  cache_as_expected);
    digests.str("sweep_samples", first_digest);
    out.nums("pass_s", pass_s);
  } else {
    const Inputs& in = *inputs;
    JsonObject layers;
    const std::vector<double> build = tr.durations_s("workloads.corpus_build");
    layers.num("workloads.corpus_build_s", median(build));
    if (!warm) {
      // One plain sweep, then the replay through the layers.
      analysis::Sweep s;
      {
        Tracer::Scope span(tr, "analysis.run_sweep");
        s = sweep(in, cache::CacheMode::Off, "");
      }
      const ColdReplay r = replay_cold(in, tr);

      bool same = r.cells.size() == s.samples.size();
      for (std::size_t i = 0; same && i < r.cells.size(); ++i) {
        same = r.cells[i] == s.samples[i].metrics;
      }
      checks.expect("direct layer calls give run_sweep's RunMetrics", same);
      checks.expect("every corpus method verifies", r.all_verify);
      digests.str("sweep_samples", samples_digest(s));

      const std::map<std::string, double> self = tr.self_times();
      auto self_s = [&](const char* n) {
        const auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
      };
      const double execute_s = self_s("sim.execute");
      const double messages =
          static_cast<double>(r.serial_messages + r.mesh_messages);
      std::vector<double> cell_us = tr.durations_s("sim.execute");
      for (double& v : cell_us) v *= 1e6;
      layers.num("bytecode.verify_s", self_s("bytecode.verify"))
          .num("fabric.resolve_s", self_s("fabric.resolve"))
          .num("fabric.place_s", self_s("fabric.place"))
          .num("sim.plan_lower_s", self_s("sim.plan_lower"))
          .integer("sim.plans", static_cast<std::int64_t>(tr.count("sim.plan_lower")))
          .num("sim.execute_s", execute_s)
          .num("sim.cell_us_p50", percentile(cell_us, 50))
          .num("sim.cell_us_p99", percentile(cell_us, 99))
          .integer("sim.serial_messages", r.serial_messages)
          .integer("sim.mesh_messages", r.mesh_messages)
          .integer("sim.instructions_fired", r.instructions_fired)
          .num("sim.ns_per_message", messages > 0 ? execute_s * 1e9 / messages : 0.0)
          .num("cache.key_s", self_s("cache.key"))
          .num("analysis.orchestration_s", orchestration_s(s));
      model_outputs(s, layers);
    } else {
      // Warm passes are milliseconds: repeat each leg and report medians
      // (orchestration) or per-pass means (span totals).
      constexpr int kPasses = 10;
      std::vector<double> orchestration;
      analysis::Sweep s;
      for (int i = 0; i < kPasses; ++i) {
        Tracer::Scope span(tr, "analysis.run_sweep");
        s = sweep(in, cache::CacheMode::Read, cache_dir);
        orchestration.push_back(orchestration_s(s));
      }
      digests.str("sweep_samples", samples_digest(s));
      bool all_match = true;
      for (int i = 0; i < kPasses; ++i) {
        all_match = replay_warm(in, cache_dir, s, tr) == s.cache.hit_cells &&
                    all_match;
      }
      checks.expect("direct cache loads give run_sweep's RunMetrics", all_match);
      const std::map<std::string, double> self = tr.self_times();
      auto per_pass = [&](const char* n) {
        const auto it = self.find(n);
        return (it == self.end() ? 0.0 : it->second) / kPasses;
      };
      const cache::CacheStore store(cache_dir);
      layers.num("cache.key_s", per_pass("cache.key"))
          .num("cache.load_s", per_pass("cache.load"))
          .integer("cache.hit_cells", static_cast<std::int64_t>(s.cache.hit_cells))
          .integer("cache.record_bytes",
                   static_cast<std::int64_t>(
                       store.stats(cache::record_fingerprint()).bytes))
          .num("analysis.orchestration_s", median(orchestration));
      model_outputs(s, layers);
    }
    layers.num("trace.overhead_s", finish_trace(tr, opt.work_dir, checks));
    out.raw("layers", layers.dump());
  }

  out.nums("setup_s", setup_s)
      .integer("peak_rss_kb", peak_rss_kb())
      .raw("digests", digests.dump())
      .raw("checks", checks.json());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace jfbench
