// serve_backlog: one open-loop request stream through serve::serve on
// the kernel-only corpus. run.py starts one process per stream and kills
// it at a wall-clock deadline, so a stalled stream cannot hang the
// benchmark. The traced run splits the serving time into the stream
// generator, fabric loads, and each request's execution run alone.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fabric_manager.hpp"
#include "fabric/dataflow_graph.hpp"
#include "serve/request_stream.hpp"
#include "serve/server.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"
#include "workloads/corpus.hpp"

namespace jfbench {
namespace {

using namespace javaflow;

constexpr std::int64_t kMeanGapTicks = 48;
constexpr std::int32_t kRequests = 2000;
constexpr int kSetups = 3;  // setup_s is their median

// Loop-nest kernels whose single run fires 10k-74k instructions on
// Compact2, against a median kernel of about 130. Left in, a stream's
// host time is set by how many of them it happens to draw (about 15
// FFT requests per 2000, so ±26 %), not by the serving machinery.
constexpr const char* kLongKernels[] = {
    "scimark.fft.FFT.transform_internal(AI)V",
    "scimark.sor.SOR.execute(DAI)D",
    "scimark.sparse.SparseCompRow.matmult(AAAAAI)V",
    "spec.benchmarks._209_db.Database.shell_sort(AI)V",
};

struct Inputs {
  workloads::Corpus corpus;
  std::vector<std::int32_t> methods;  // kernels minus kLongKernels
  std::size_t excluded = 0;
  serve::RequestStreamOptions stream;
  sim::MachineConfig config;
};

std::unique_ptr<Inputs> build_inputs(std::uint64_t seed, Tracer& tr) {
  auto in = std::make_unique<Inputs>();
  {
    Tracer::Scope span(tr, "workloads.corpus_build");
    in->corpus = workloads::make_corpus({.total_methods = 0});  // kernels
  }
  for (std::size_t i = 0; i < in->corpus.program.methods.size(); ++i) {
    const std::string& name = in->corpus.program.methods[i].name;
    if (std::find(std::begin(kLongKernels), std::end(kLongKernels), name) !=
        std::end(kLongKernels)) {
      ++in->excluded;
      continue;
    }
    in->methods.push_back(static_cast<std::int32_t>(i));
  }
  in->stream.seed = seed;
  in->stream.num_requests = kRequests;
  in->stream.mean_gap_ticks = kMeanGapTicks;
  in->stream.hot_fraction_256 = 128;
  in->config = sim::config_by_name("Compact2");
  return in;
}

// Conservation and terminal-state checks on one report.
void check_report(const Inputs& in, const serve::ServeReport& rep,
                  Checks& checks) {
  checks.expect("the long loop-nest kernels are left out of the stream",
                in.excluded == std::size(kLongKernels));
  bool one_flag = true;
  for (const serve::RequestOutcome& o : rep.outcomes) {
    one_flag = one_flag &&
               (o.completed ? 1 : 0) + (o.rejected ? 1 : 0) + (o.timed_out ? 1 : 0) == 1;
  }
  checks.expect("every request of the stream is reported",
                rep.requests == in.stream.num_requests &&
                    rep.outcomes.size() == static_cast<std::size_t>(rep.requests));
  checks.expect("requests = completed + rejected + timed_out",
                rep.requests == rep.completed + rep.rejected + rep.timed_out);
  checks.expect("each outcome has exactly one terminal flag", one_flag);
  checks.expect("co-resident execution observed (ticks_res_2plus > 0)",
                rep.ticks_res_2plus > 0);
}

// The traced decomposition of one serving run.
struct Decomposition {
  serve::ServeReport report;
  bool isolated_ok = true;
  std::int64_t serial_messages = 0;
  std::int64_t mesh_messages = 0;
  std::int64_t instructions_fired = 0;
};

Decomposition decompose(const Inputs& in, Tracer& tr) {
  Tracer::Scope root(tr, "bench.serve_pass");
  const bytecode::Program& program = in.corpus.program;
  // A request's method_index selects into the serving list.
  auto method_of = [&](std::int32_t index) -> const bytecode::Method& {
    return program.methods[static_cast<std::size_t>(
        in.methods[static_cast<std::size_t>(index)])];
  };
  Decomposition d;
  std::vector<serve::Request> requests;
  {
    Tracer::Scope span(tr, "serve.stream");
    requests = serve::make_request_stream(
        static_cast<std::int32_t>(in.methods.size()), in.stream);
  }
  {
    Tracer::Scope span(tr, "serve.total");
    d.report = serve::serve(program, in.methods, in.config, in.stream);
  }

  // Fabric loads: canonical span plus load of each distinct method on a
  // fresh manager.
  std::set<std::int32_t> distinct;
  for (const serve::Request& r : requests) distinct.insert(r.method_index);
  for (const std::int32_t index : distinct) {
    FabricManager mgr(in.config);
    Tracer::Scope span(tr, "core.load");
    if (mgr.canonical_span(method_of(index), program.pool)) {
      mgr.load(method_of(index), program.pool);
    }
  }

  // Every request's (method, scenario) run alone on an idle fabric.
  std::map<std::int32_t, sim::ExecPlan> plans;
  sim::ExecPlanBuilder builder;
  for (const std::int32_t index : distinct) {
    fabric::DataflowGraph graph;
    {
      Tracer::Scope span(tr, "fabric.resolve");
      graph = fabric::build_dataflow_graph(method_of(index), program.pool);
    }
    Tracer::Scope span(tr, "sim.plan_lower");
    plans[index] = builder.build(method_of(index), graph, nullptr, in.config);
  }
  sim::Engine engine(in.config);
  Tracer::Scope isolated(tr, "serve.isolated_execute");
  for (const serve::Request& r : requests) {
    sim::BranchPredictor predictor(r.scenario);
    sim::RunMetrics rm;
    {
      Tracer::Scope span(tr, "sim.execute");
      rm = engine.run(method_of(r.method_index), plans[r.method_index],
                      predictor);
    }
    d.isolated_ok = d.isolated_ok && rm.fits && rm.completed;
    d.serial_messages += rm.serial_messages;
    d.mesh_messages += rm.mesh_messages;
    d.instructions_fired += rm.instructions_fired;
  }
  return d;
}

}  // namespace

int run_serve_workload(const Options& opt) {
  Checks checks;
  JsonObject out;
  out.str("workload", opt.workload)
      .integer("seed", static_cast<std::int64_t>(opt.seed));

  Tracer tr(opt.run_id, opt.trace);
  std::unique_ptr<Inputs> in;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    in.reset();
    in = build_inputs(opt.seed, tr);
    setup_s.push_back(seconds_since(t0));
  }
  const std::int64_t rss_before_kb = peak_rss_kb();

  if (!opt.trace) {
    const Clock::time_point t0 = Clock::now();
    const serve::ServeReport rep =
        serve::serve(in->corpus.program, in->methods, in->config, in->stream);
    const double serve_s = seconds_since(t0);
    check_report(*in, rep, checks);
    out.num("serve_s", serve_s)
        .integer("requests", rep.requests)
        .integer("completed", rep.completed)
        .str("digest", hex64(rep.digest()));
  } else {
    // A plain run first: its memory growth, and a digest to repeat.
    const std::uint64_t first_digest =
        serve::serve(in->corpus.program, in->methods, in->config, in->stream)
            .digest();
    const std::int64_t rss_after_kb = peak_rss_kb();
    const Decomposition d = decompose(*in, tr);
    const serve::ServeReport& rep = d.report;
    check_report(*in, rep, checks);
    checks.expect("the stream gives the same digest when run twice",
                  first_digest == rep.digest());
    checks.expect("every request completes when run alone", d.isolated_ok);

    const std::map<std::string, double> self = tr.self_times();
    auto self_s = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    const double total_s = tr.total_s("serve.total");
    const double isolated_s = tr.total_s("serve.isolated_execute");
    const double load_s = tr.total_s("core.load");
    const double execute_s = self_s("sim.execute");
    const double messages =
        static_cast<double>(d.serial_messages + d.mesh_messages);
    std::vector<double> cell_us = tr.durations_s("sim.execute");
    for (double& v : cell_us) v *= 1e6;
    JsonObject layers;
    layers.num("workloads.corpus_build_s",
             median(tr.durations_s("workloads.corpus_build")))
        .num("fabric.resolve_s", self_s("fabric.resolve"))
        .num("sim.plan_lower_s", self_s("sim.plan_lower"))
        .integer("sim.plans", static_cast<std::int64_t>(tr.count("sim.plan_lower")))
        .num("sim.execute_s", execute_s)
        .num("sim.cell_us_p50", percentile(cell_us, 50))
        .num("sim.cell_us_p99", percentile(cell_us, 99))
        .integer("sim.serial_messages", d.serial_messages)
        .integer("sim.mesh_messages", d.mesh_messages)
        .integer("sim.instructions_fired", d.instructions_fired)
        .num("sim.ns_per_message", messages > 0 ? execute_s * 1e9 / messages : 0.0)
        .num("serve.stream_s", tr.total_s("serve.stream"))
        .num("serve.total_s", total_s)
        .num("serve.isolated_execute_s", isolated_s)
        .num("serve.multitenant_overhead_s", total_s - isolated_s - load_s)
        .integer("serve.max_queue_depth", rep.max_queue_depth)
        .integer("serve.fabric_ticks", rep.fabric_ticks)
        .integer("serve.ticks_res_2plus", rep.ticks_res_2plus)
        .integer("serve.wait_ticks.serial", rep.serial_wait_ticks)
        .integer("serve.wait_ticks.mesh", rep.mesh_wait_ticks)
        .integer("serve.wait_ticks.ring", rep.ring_wait_ticks)
        .integer("serve.latency_p50_ticks", rep.latency_p50)
        .integer("serve.latency_p99_ticks", rep.latency_p99)
        .num("serve.rss_kb_per_request",
             static_cast<double>(rss_after_kb - rss_before_kb) /
                 static_cast<double>(std::max<std::int64_t>(rep.requests, 1)))
        .num("core.load_s", load_s)
        .integer("core.loads", rep.loads)
        .integer("core.evictions", rep.evictions)
        .integer("core.plans_shared", rep.plans_shared)
        .integer("core.plans_lowered", rep.plans_lowered)
        .num("trace.overhead_s", finish_trace(tr, opt.work_dir, checks));
    out.integer("requests", rep.requests)
        .str("digest", hex64(rep.digest()))
        .raw("layers", layers.dump());
  }
  out.nums("setup_s", setup_s)
      .integer("peak_rss_kb", peak_rss_kb())
      .integer("rss_before_serve_kb", rss_before_kb)
      .raw("checks", checks.json());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace jfbench
