// Tests for the analysis layer: statistics, mixes, filters, Figure of
// Merit normalization, and report rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/dataflow_analysis.hpp"
#include "analysis/figure_of_merit.hpp"
#include "analysis/mix.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bytecode/assembler.hpp"
#include "jvm/interpreter.hpp"

namespace javaflow::analysis {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({3.0, 1.0, 2.0, 4.0, 10.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_NEAR(s.std_dev, 3.5355, 1e-3);
}

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, CorrelationSigns) {
  EXPECT_NEAR(correlation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-9);
  EXPECT_NEAR(correlation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(correlation({1, 1, 1}, {2, 5, 9}), 0.0);  // constant x
}

TEST(Filters, MatchTable16Definitions) {
  EXPECT_TRUE(filter_accepts(Filter::All, 5, false));
  EXPECT_TRUE(filter_accepts(Filter::All, 5000, false));
  EXPECT_FALSE(filter_accepts(Filter::Filter1, 10, false));   // strict >10
  EXPECT_TRUE(filter_accepts(Filter::Filter1, 11, false));
  EXPECT_FALSE(filter_accepts(Filter::Filter1, 1000, false)); // strict <1000
  EXPECT_TRUE(filter_accepts(Filter::Filter1, 999, true));
  EXPECT_FALSE(filter_accepts(Filter::Filter2, 500, false));  // needs hot
  EXPECT_TRUE(filter_accepts(Filter::Filter2, 500, true));
  EXPECT_FALSE(filter_accepts(Filter::Filter2, 5, true));     // size band
}

TEST(Mix, ProfilerDrivenTables) {
  Program p;
  Assembler a(p, "bm1.hot()I", "bm1");
  a.returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.iconst(100).istore(0);
  a.goto_(test);
  a.bind(body);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  p.methods.push_back(a.build());
  Assembler b(p, "bm1.cold()I", "bm1");
  b.returns(ValueType::Int);
  b.iconst(1).op(Op::ireturn);
  p.methods.push_back(b.build());

  jvm::Profiler profiler;
  jvm::Interpreter vm(p, &profiler);
  vm.invoke("bm1.hot()I", {});
  vm.invoke("bm1.cold()I", {});

  const auto util = method_utilization(profiler);
  ASSERT_EQ(util.size(), 1u);
  EXPECT_EQ(util[0].benchmark, "bm1");
  EXPECT_EQ(util[0].methods_used, 2u);
  EXPECT_EQ(util[0].methods_for_90pct, 1u);  // the loop dominates

  const auto top = top_methods(profiler, 4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].top[0].method, "bm1.hot()I");
  EXPECT_GT(top[0].top[0].share, 0.9);

  const auto mix = dynamic_mix_of_hot_methods(profiler);
  ASSERT_EQ(mix.size(), 1u);
  double total = 0;
  for (const double f : mix[0].fractions) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // The loop is all locals/iinc + control.
  EXPECT_GT(mix[0].fractions[static_cast<int>(
                bytecode::DynamicMixCategory::LocalsStack)],
            0.4);
}

TEST(Mix, QuickImpactCountsRewrites) {
  Program p;
  p.classes["C"] = bytecode::ClassDef{"C", {}, {{"f", ValueType::Int}}};
  Assembler a(p, "bm.q()I", "bm");
  a.returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.iconst(50).istore(0);
  a.goto_(test);
  a.bind(body);
  a.getstatic("C", "f", ValueType::Int);
  a.iconst(1).op(Op::iadd);
  a.putstatic("C", "f", ValueType::Int);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.getstatic("C", "f", ValueType::Int);
  a.op(Op::ireturn);
  p.methods.push_back(a.build());

  jvm::Profiler profiler;
  jvm::Interpreter vm(p, &profiler);
  vm.invoke("bm.q()I", {});
  const QuickImpact q = quick_impact(profiler);
  EXPECT_EQ(q.storage_base, 3u);  // each site resolved exactly once
  EXPECT_GT(q.storage_quick, 90u);
  // Table 5's shape: ~97-99 % of storage executions are quick.
  EXPECT_GT(q.quick_percentage, 0.9);
}

TEST(Mix, StaticMixRowsSumToOne) {
  Program p;
  Assembler a(p, "bm.s(A)V", "bmA");
  a.args({ValueType::Ref}).returns(ValueType::Void);
  a.aload(0).iconst(0).op(Op::iaload).istore(1);
  a.iload(1).op(Op::i2d).dconst(0.5).op(Op::dmul).op(Op::d2i).istore(1);
  a.op(Op::return_);
  p.methods.push_back(a.build());
  const auto rows =
      static_mix({&p.methods[0]});
  ASSERT_EQ(rows.size(), 2u);  // bmA + Total
  for (const auto& row : rows) {
    EXPECT_NEAR(row.arith + row.fp + row.control + row.storage, 1.0, 1e-9);
  }
  EXPECT_GT(rows[0].storage, 0.0);
  EXPECT_GT(rows[0].fp, 0.0);
}

TEST(DataflowAnalysis, AggregatesPerBenchmark) {
  Program p;
  Assembler a(p, "bmX.m1(I)I", "bmX");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  p.methods.push_back(a.build());

  const auto records = analyze_dataflow({&p.methods[0]}, p.pool);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].back_jumps, 1);
  EXPECT_EQ(records[0].forward_jumps, 1);  // the goto
  EXPECT_EQ(records[0].back_merges, 0);

  const auto rows = benchmark_dataflow_rows(records);
  ASSERT_EQ(rows.size(), 2u);  // bmX + Sum
  EXPECT_EQ(rows[0].benchmark, "bmX");
  EXPECT_EQ(rows[1].benchmark, "Sum");
  EXPECT_EQ(rows[1].total_back_merges, 0);
  EXPECT_EQ(rows[1].total_insts,
            static_cast<std::int64_t>(p.methods[0].code.size()));

  const auto summaries = summarize_dataflow(records);
  EXPECT_EQ(summaries.back_merges_total, 0);
  EXPECT_EQ(summaries.static_insts.n, 1u);
}

TEST(FigureOfMerit, SweepNormalizesToBaseline) {
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

  SweepOptions options;
  const Sweep sweep =
      run_sweep({&p.methods[0]}, p.pool, {"bm.w(IA)I"}, options);
  // 6 configs x 2 scenarios.
  EXPECT_EQ(sweep.samples.size(), 12u);

  const auto fom = fom_rows(sweep, Filter::All);
  ASSERT_EQ(fom.size(), 6u);
  EXPECT_NEAR(fom[0].fm_mean, 1.0, 1e-9);  // Baseline == 1 by definition
  for (std::size_t k = 1; k < fom.size(); ++k) {
    EXPECT_LT(fom[k].fm_mean, 1.0) << fom[k].config;
    EXPECT_GT(fom[k].fm_mean, 0.0) << fom[k].config;
  }
  // Monotone down the Table 15 list for this loop+storage method.
  EXPECT_GE(fom[1].fm_mean, fom[3].fm_mean);
  EXPECT_GE(fom[3].fm_mean, fom[5].fm_mean);

  const auto ratios = node_ratio_rows(sweep, Filter::All);
  EXPECT_DOUBLE_EQ(ratios[0].ratio.mean, 1.0);  // Baseline is dense
  EXPECT_NEAR(ratios[4].ratio.mean, 2.0, 0.2);  // Sparse2

  const auto par = parallelism_rows(sweep);
  ASSERT_EQ(par.size(), 6u);
  for (const auto& row : par) {
    EXPECT_GE(row.mean_fraction_2plus, 0.0);
    EXPECT_LE(row.mean_fraction_2plus, 1.0);
  }

  const auto cov = coverage_rows(sweep);
  ASSERT_EQ(cov.size(), 2u);
  EXPECT_GT(cov[0].mean_coverage, 0.5);

  const auto per_method = per_method_fom(sweep, {"bm.w(IA)I"});
  ASSERT_EQ(per_method.size(), 1u);
  EXPECT_NEAR(per_method[0].fm[0], 1.0, 1e-9);
  EXPECT_GT(per_method[0].hetero_nodes,
            per_method[0].total_insts);  // hetero spreads the method

  const auto corr = hetero_fom_correlations(sweep);
  EXPECT_EQ(corr.size(), 4u);  // Table 23's four factors
}

TEST(Report, RendersAlignedTable) {
  Table t("Demo");
  t.columns({"Case", "IPC"});
  t.row({"Baseline", Table::num(0.61, 2)});
  t.row({"Hetero2", Table::num(0.23, 2)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("Baseline"), std::string::npos);
  EXPECT_NE(out.find("0.61"), std::string::npos);
}

TEST(Report, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.47), "47%");
  EXPECT_EQ(Table::pct(0.405, 1), "40.5%");
  EXPECT_EQ(Table::big(1234567), "1,234,567");
  EXPECT_EQ(Table::big(12), "12");
}

}  // namespace
}  // namespace javaflow::analysis
