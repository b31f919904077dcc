// Reproduces Tables 27-28 — Figure of Merit of the top-4 SPEC benchmark
// methods across all configurations, with the "Total I" and "Sparser N"
// (heterogeneous node span) columns.
//
// Paper: the SpecJvm2008 list sums 4276 insts spanning 9640 hetero nodes
// with mean FoMs 100% / 72% / 62% / 52% / 38% / 35%; SpecJvm98 similar.
#include <cstdio>

#include "bench_common.hpp"

using javaflow::analysis::Table;

namespace {

void fom_by_suite(const javaflow::bench::Context& ctx,
                  const javaflow::analysis::Sweep& sweep,
                  const std::string& suite, const std::string& header,
                  const std::string& note) {
  javaflow::analysis::print_header(header);
  javaflow::bench::paper_note(note);

  // The hot methods the drivers actually executed, restricted to `suite`.
  std::vector<std::string> methods;
  for (const auto& bm : ctx.corpus.benchmarks) {
    if (bm.suite != suite) continue;
    for (const std::string& m : bm.methods) {
      if (std::find(methods.begin(), methods.end(), m) == methods.end()) {
        methods.push_back(m);
      }
    }
  }
  Table t(header);
  t.columns({"Method", "Total I", "Sparser N", "fm0", "fm1", "fm2", "fm3",
             "fm4", "fm5"});
  std::vector<double> sums(sweep.configs.size(), 0.0);
  int rows = 0;
  std::int64_t insts = 0, nodes = 0;
  for (const auto& row :
       javaflow::analysis::per_method_fom(sweep, methods)) {
    if (row.total_insts == 0) continue;  // not in the sweep sample
    std::vector<std::string> cells = {row.method,
                                      std::to_string(row.total_insts),
                                      std::to_string(row.hetero_nodes)};
    for (std::size_t ci = 0; ci < row.fm.size(); ++ci) {
      cells.push_back(Table::pct(row.fm[ci]));
      sums[ci] += row.fm[ci];
    }
    insts += row.total_insts;
    nodes += row.hetero_nodes;
    ++rows;
    t.row(std::move(cells));
  }
  if (rows > 0) {
    std::vector<std::string> mean_row = {"Sum/Mean", Table::big(insts),
                                         Table::big(nodes)};
    for (const double s : sums) {
      mean_row.push_back(Table::pct(s / rows));
    }
    t.row(std::move(mean_row));
  }
  t.print();
}

}  // namespace

int main() {
  javaflow::bench::Context ctx;
  // Tables 27-28 need every kernel method, so sweep the kernels directly
  // (no stride subsampling); only the cache knobs apply.
  javaflow::analysis::SweepOptions options;
  javaflow::bench::apply_cache_env(options);
  const auto sweep = javaflow::analysis::run_sweep(
      ctx.kernel_methods(), ctx.corpus.program.pool,
      ctx.hot_method_names(), options);
  fom_by_suite(ctx, sweep, "SpecJvm2008",
               "Table 27 — Figure of Merit on Top 4 SpecJvm2008 methods",
               "Sum 4276 insts / 9640 hetero nodes; mean FoM 72/62/52/38/35%");
  fom_by_suite(ctx, sweep, "SpecJvm98",
               "Table 28 — Figure of Merit on Top 4 SpecJvm98 methods",
               "Sum 2866 insts / 8368 hetero nodes; mean FoM 82/72/58/43/37%");
  return 0;
}
