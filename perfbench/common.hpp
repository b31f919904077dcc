// Shared helpers for the jfbench workloads: wall clocks, peak RSS, a
// minimal JSON writer, the correctness-check tally and the span recorder
// behind the traced runs.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace jfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

// Peak resident set of this process so far, in KiB.
inline std::int64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, q / 100.0 * n + 0.999999));
  return v[std::min(rank, v.size()) - 1];
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Flat JSON object builder: numbers keep every digit, strings are
// escaped, nested values are passed in already serialized.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
      out += (i ? ", " : "");
      out += buf;
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

// Correctness checks of one run. Each failing check is a failed
// operation in the result line.
class Checks {
 public:
  void expect(const std::string& name, bool ok) {
    results_.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "jfbench: CHECK FAILED: %s\n", name.c_str());
  }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      out += (i ? ", " : "");
      out += JsonObject()
                 .str("name", results_[i].first)
                 .boolean("ok", results_[i].second)
                 .dump();
    }
    return out + "]";
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
};

// In-memory span recorder for the traced runs. A span is one call into a
// layer's public function, timed from outside: name, start, end, parent
// span, and the workload-run id shared by every span of the run. A
// disabled tracer (untraced runs) records nothing and reads no clock.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int32_t parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  // RAII guard: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_;
  };

  Tracer(std::string run_id, bool enabled)
      : run_id_(std::move(run_id)), enabled_(enabled) {}

  std::size_t size() const { return spans_.size(); }

  // Total duration of every span named `name`, and its self time: the
  // duration minus the part its child spans cover (children of one span
  // never overlap — the benchmark is single-threaded).
  double total_s(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (name == sp.name) s += seconds_between(sp.start, sp.end);
    }
    return s;
  }
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& sp : spans_) {
      if (sp.parent >= 0) {
        child[static_cast<std::size_t>(sp.parent)] +=
            seconds_between(sp.start, sp.end);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] +=
          seconds_between(spans_[i].start, spans_[i].end) - child[i];
    }
    return out;
  }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& sp) { return name == sp.name; }));
  }
  std::vector<double> durations_s(const std::string& name) const {
    std::vector<double> out;
    for (const Span& sp : spans_) {
      if (name == sp.name) out.push_back(seconds_between(sp.start, sp.end));
    }
    return out;
  }

  // Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
  // one complete event per span, microseconds from the first span, with
  // the span id, parent id and run id as arguments.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::fprintf(
          f,
          "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %d, \"run\": %s}}\n",
          i ? "," : "", sp.name, seconds_between(t0, sp.start) * 1e6,
          seconds_between(sp.start, sp.end) * 1e6, i, sp.parent,
          JsonObject::quote(run_id_).c_str());
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    Span sp;
    sp.name = name;
    sp.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(sp);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_.back().start = Clock::now();
    return id;
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    open_.pop_back();
  }

  std::string run_id_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Writes the spans to <work_dir>/spans.json and returns trace.overhead_s:
// the measured cost of one span times the spans recorded, plus the
// write. Subtracting a separately timed untraced pass instead measures
// host drift: on a shared host two passes differ by seconds, while the
// spans of a whole sweep cost milliseconds.
inline double finish_trace(const Tracer& tr, const std::string& work_dir,
                           Checks& checks) {
  constexpr int kProbe = 100000;
  Tracer probe("", true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kProbe; ++i) Tracer::Scope span(probe, "probe");
  const double per_span = seconds_since(t0) / kProbe;
  const Clock::time_point tw = Clock::now();
  checks.expect("span file written",
                tr.write_chrome_json(work_dir + "/spans.json"));
  return per_span * static_cast<double>(tr.size()) + seconds_since(tw);
}

// Command-line options shared by the workloads (parsed in jfbench.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string run_id;
  // sweep_cold at the default seed: the committed stride-32 snapshot.
  std::string reference_snapshot;
};

// Each workload prints one JSON object on stdout and returns the exit
// code (0 unless the run itself could not be carried out). sweep_fill is
// sweep_warm's set-up, run in a process of its own so that the warm
// process's peak RSS covers only its own work.
int run_sweep_fill(const Options& opt);
int run_sweep_workload(const Options& opt);
int run_serve_workload(const Options& opt);

}  // namespace jfbench
