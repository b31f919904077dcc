// Plain-text table rendering for the bench harnesses: each bench prints
// the paper's rows next to the reproduction's measurements.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "analysis/figure_of_merit.hpp"

namespace javaflow::analysis {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& columns(std::vector<std::string> names);
  Table& row(std::vector<std::string> cells);

  // Convenience cell formatters.
  static std::string num(double v, int decimals = 2);
  static std::string pct(double fraction, int decimals = 0);  // 0.47 -> 47%
  static std::string big(std::uint64_t v);  // thousands separators

  void print(std::ostream& os = std::cout) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// Section header used between tables in a bench binary's output.
void print_header(const std::string& text, std::ostream& os = std::cout);

// Machine-readable sweep report: per-config aggregates — IPC / FoM plus
// the network-traffic and execution-overlap fields RunMetrics measures
// but the tables never printed (mesh_messages, serial_messages,
// ticks_exec_1plus/2plus) — and the per-phase / per-lane wall-clock
// profile. Emitted as one JSON object; `indent` shifts every line right
// so the report can be embedded in an enclosing document (BENCH_sweep).
void write_sweep_json(std::ostream& os, const Sweep& sweep, int indent = 0);

}  // namespace javaflow::analysis
