#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <utility>

#include "cache/hash.hpp"
#include "core/fabric_manager.hpp"
#include "sim/multi_engine.hpp"
#include "util/json.hpp"

namespace javaflow::serve {

namespace {

// One serving run's mutable state, torn down when serve() returns.
class ServerState {
 public:
  ServerState(const bytecode::Program& program,
              const std::vector<std::int32_t>& methods,
              const sim::MachineConfig& config,
              const std::vector<Request>& requests)
      : program_(program),
        methods_(methods),
        requests_(requests),
        mgr_(config),
        engine_(config),
        by_method_(methods.size()) {
    outcomes_.resize(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      outcomes_[i].request_id = requests[i].id;
      outcomes_[i].method_index = requests[i].method_index;
      outcomes_[i].arrival_tick = requests[i].arrival_tick;
    }
  }

  void run() {
    enqueue_due();
    admission_pass();
    while (queued_ > 0 || next_arrival_ < requests_.size() ||
           !running_.empty()) {
      const std::int64_t until = next_arrival_ < requests_.size()
                                     ? requests_[next_arrival_].arrival_tick
                                     : sim::MultiEngine::kNoLimit;
      const auto done = engine_.advance(until);
      if (done) {
        handle_completion(*done);
      } else if (next_arrival_ >= requests_.size() && queued_ > 0 &&
                 running_.empty()) {
        // Unreachable: with nothing executing every resident is idle and
        // evictable, so the last admission pass placed every method that
        // fits an empty fabric and rejected the rest. Throwing keeps
        // `rejected` meaning "can never fit" and the loop finite.
        throw std::logic_error(
            "serve: queued requests cannot start on an idle fabric");
      }
      enqueue_due();
      admission_pass();
    }
  }

  ServeReport report(const sim::MachineConfig& config, std::uint64_t seed) {
    const sim::MultiRunMetrics agg = engine_.finish();
    ServeReport rep;
    rep.config_name = config.name;
    rep.seed = seed;
    rep.requests = static_cast<std::int64_t>(requests_.size());
    rep.fabric_ticks = agg.fabric_ticks;
    rep.ticks_res_1plus = agg.ticks_res_1plus;
    rep.ticks_res_2plus = agg.ticks_res_2plus;
    rep.serial_wait_ticks = agg.serial_wait_ticks;
    rep.mesh_wait_ticks = agg.mesh_wait_ticks;
    rep.ring_wait_ticks = agg.ring_wait_ticks;
    rep.loads = loads_;
    rep.evictions = evictions_;
    rep.plans_shared = mgr_.plans_shared();
    rep.plans_lowered = mgr_.plans_lowered();
    rep.max_queue_depth = max_queue_depth_;

    std::vector<std::int64_t> lat;
    for (const RequestOutcome& o : outcomes_) {
      rep.completed += o.completed ? 1 : 0;
      rep.rejected += o.rejected ? 1 : 0;
      rep.timed_out += o.timed_out ? 1 : 0;
      rep.instructions_fired += o.metrics.instructions_fired;
      if (o.completed) lat.push_back(o.latency_ticks);
    }
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      const std::int64_t n = static_cast<std::int64_t>(lat.size());
      const auto rank = [&](std::int64_t q) {
        // Nearest-rank percentile: the ceil(q*n/100)-th smallest.
        const std::int64_t r = (q * n + 99) / 100;
        return lat[static_cast<std::size_t>(std::max<std::int64_t>(r, 1) - 1)];
      };
      rep.latency_p50 = rank(50);
      rep.latency_p95 = rank(95);
      rep.latency_p99 = rank(99);
      rep.latency_max = lat.back();
      std::int64_t sum = 0;
      for (const std::int64_t v : lat) sum += v;
      rep.latency_mean_x1000 = sum * 1000 / n;
    }
    rep.outcomes = std::move(outcomes_);
    return rep;
  }

 private:
  using MethodId = FabricManager::MethodId;

  // One serving-list method: its waiting requests (indices into
  // requests_, in arrival order), the FabricManager resident that holds
  // it, and the tick it was last loaded or last finished a request.
  struct MethodState {
    std::deque<std::int64_t> waiting;
    MethodId resident = -1;  // -1 while the method is not loaded
    std::int64_t last_used = 0;
  };

  MethodState& method_of_request(std::int64_t qi) {
    return by_method_[static_cast<std::size_t>(
        requests_[static_cast<std::size_t>(qi)].method_index)];
  }

  // §4.3: the method's one thread runs while the manager's lease on its
  // resident is held.
  bool busy(const MethodState& ms) const {
    return ms.resident >= 0 && mgr_.find(ms.resident)->busy;
  }

  void enqueue_due() {
    while (next_arrival_ < requests_.size() &&
           requests_[next_arrival_].arrival_tick <= engine_.now()) {
      const auto qi = static_cast<std::int64_t>(next_arrival_++);
      MethodState& ms = method_of_request(qi);
      ms.waiting.push_back(qi);
      if (ms.waiting.size() == 1 && !busy(ms)) ready_.insert(qi);
      ++queued_;
    }
    max_queue_depth_ = std::max(max_queue_depth_, queued_);
  }

  // Drops request `qi`, the head of its method's FIFO, and keeps ready_
  // equal to the heads of the idle methods' FIFOs.
  void dequeue(std::int64_t qi) {
    MethodState& ms = method_of_request(qi);
    ready_.erase(qi);
    ms.waiting.pop_front();
    --queued_;
    if (!ms.waiting.empty() && !busy(ms)) ready_.insert(ms.waiting.front());
  }

  // The lowest free row-aligned gap first (shares the canonical plan),
  // then the manager's greedy packer, then idle-LRU eviction until a
  // load succeeds or nothing evictable remains.
  std::optional<MethodId> place_with_eviction(const bytecode::Method& m,
                                              std::int32_t span) {
    while (true) {
      if (auto id = mgr_.load(m, program_.pool, mgr_.first_free_row(span))) {
        return id;
      }
      // Evict the least-recently-used idle resident (ties: smaller id —
      // both orderings are deterministic integers).
      MethodState* victim = nullptr;
      for (MethodState& ms : by_method_) {
        if (ms.resident < 0 || busy(ms)) continue;
        if (victim == nullptr || ms.last_used < victim->last_used ||
            (ms.last_used == victim->last_used &&
             ms.resident < victim->resident)) {
          victim = &ms;
        }
      }
      if (victim == nullptr) return std::nullopt;
      mgr_.unload(victim->resident);
      victim->resident = -1;
      ++evictions_;
    }
  }

  // Tries to start request `qi`, the FIFO head of a method that holds no
  // thread: loads the method if needed (evicting idle-LRU residents),
  // then leases it and admits a residency. Returns false when the method
  // cannot be placed yet; true once the request is admitted or rejected.
  bool try_start(std::int64_t qi) {
    const Request& rq = requests_[static_cast<std::size_t>(qi)];
    const bytecode::Method& m = program_.methods[static_cast<std::size_t>(
        methods_[static_cast<std::size_t>(rq.method_index)])];
    MethodState& ms = method_of_request(qi);
    if (ms.resident < 0) {
      const auto span = mgr_.canonical_span(m, program_.pool);
      if (!span) {
        // Exceeds the fabric even when empty: reject outright.
        outcomes_[static_cast<std::size_t>(qi)].rejected = true;
        dequeue(qi);
        return true;
      }
      const auto placed = place_with_eviction(m, *span);
      if (!placed) return false;
      ms.resident = *placed;
      ms.last_used = engine_.now();
      ++loads_;
    }
    // The method is idle and its loaded plan fits, so neither the lease
    // nor the admission can fail.
    const FabricManager::Resident* r = mgr_.begin_execute(ms.resident);
    const sim::ResidentId rid =
        r == nullptr ? -1
                     : engine_.admit(*r->method, *r->plan, r->phys_delta,
                                     rq.scenario, engine_.now());
    if (rid < 0) {
      throw std::logic_error("serve: an idle, loaded method failed to start");
    }
    running_[rid] = qi;
    RequestOutcome& o = outcomes_[static_cast<std::size_t>(qi)];
    o.admitted_tick = engine_.now();
    o.plan_shared = r->plan_shared;
    dequeue(qi);
    return true;
  }

  // One walk over the idle methods' FIFO heads in request order. These
  // are exactly the requests a scan of the whole queue acts on: a busy
  // method's requests are scanned around (§4.3: one thread per method),
  // and a method's later requests wait behind its head. A rejected head
  // hands over to the method's next request, which the walk reaches
  // later; a space-blocked head stops the walk (FIFO head-of-line wait
  // for space). Once a walk ends, every idle method's FIFO is empty or
  // blocked, so a second walk could change nothing.
  void admission_pass() {
    std::int64_t qi = -1;
    for (auto it = ready_.begin(); it != ready_.end();
         it = ready_.upper_bound(qi)) {
      qi = *it;
      if (!try_start(qi)) return;
    }
  }

  // A leased resident is never evicted, so the method's record still
  // holds the resident the finished residency ran on.
  void handle_completion(sim::ResidentId rid) {
    const auto run = running_.find(rid);
    const std::int64_t qi = run->second;
    running_.erase(run);
    const sim::ResidentOutcome* oc = engine_.outcome(rid);
    RequestOutcome& o = outcomes_[static_cast<std::size_t>(qi)];
    o.metrics = oc->metrics;
    if (oc->metrics.timed_out) {
      o.timed_out = true;
    } else {
      o.completed = true;
      o.completed_tick = oc->completed_tick;
      o.latency_ticks = o.completed_tick - o.arrival_tick;
    }
    MethodState& ms = method_of_request(qi);
    mgr_.end_execute(ms.resident);
    if (!ms.waiting.empty()) ready_.insert(ms.waiting.front());
    ms.last_used = engine_.now();
  }

  const bytecode::Program& program_;
  const std::vector<std::int32_t>& methods_;
  const std::vector<Request>& requests_;
  FabricManager mgr_;
  sim::MultiEngine engine_;

  std::vector<RequestOutcome> outcomes_;
  std::size_t next_arrival_ = 0;
  // The admission queue, indexed: one record per serving-list method
  // (its FIFO of waiting requests among them), and the FIFO heads of the
  // methods that hold no thread, in request order.
  std::vector<MethodState> by_method_;
  std::set<std::int64_t> ready_;
  std::int64_t queued_ = 0;
  std::map<sim::ResidentId, std::int64_t> running_;  // residency -> request
  std::int64_t loads_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t max_queue_depth_ = 0;
};

// ServeReport's integer scalars, in digest and JSON order.
constexpr std::pair<const char*, std::int64_t ServeReport::*> kScalars[] = {
    {"requests", &ServeReport::requests},
    {"completed", &ServeReport::completed},
    {"rejected", &ServeReport::rejected},
    {"timed_out", &ServeReport::timed_out},
    {"fabric_ticks", &ServeReport::fabric_ticks},
    {"ticks_res_1plus", &ServeReport::ticks_res_1plus},
    {"ticks_res_2plus", &ServeReport::ticks_res_2plus},
    {"serial_wait_ticks", &ServeReport::serial_wait_ticks},
    {"mesh_wait_ticks", &ServeReport::mesh_wait_ticks},
    {"ring_wait_ticks", &ServeReport::ring_wait_ticks},
    {"loads", &ServeReport::loads},
    {"evictions", &ServeReport::evictions},
    {"plans_shared", &ServeReport::plans_shared},
    {"plans_lowered", &ServeReport::plans_lowered},
    {"max_queue_depth", &ServeReport::max_queue_depth},
    {"instructions_fired", &ServeReport::instructions_fired},
    {"latency_p50", &ServeReport::latency_p50},
    {"latency_p95", &ServeReport::latency_p95},
    {"latency_p99", &ServeReport::latency_p99},
    {"latency_max", &ServeReport::latency_max},
    {"latency_mean_x1000", &ServeReport::latency_mean_x1000},
};

}  // namespace

std::uint64_t ServeReport::digest() const {
  // FNV-1a 64 (the Hasher's first lane). The config name's length
  // follows its bytes; the pinned digests depend on that order.
  cache::Hasher f;
  f.bytes(config_name.data(), config_name.size());
  f.u64(config_name.size());
  f.u64(seed);
  for (const auto& scalar : kScalars) f.i64(this->*scalar.second);
  for (const RequestOutcome& o : outcomes) {
    f.i64(o.request_id);
    f.i64(o.method_index);
    f.i64(o.arrival_tick);
    f.i64(o.admitted_tick);
    f.i64(o.completed_tick);
    f.i64(o.latency_ticks);
    f.i64((o.completed ? 1 : 0) | (o.rejected ? 2 : 0) |
          (o.timed_out ? 4 : 0) | (o.plan_shared ? 8 : 0));
    f.i64(o.metrics.ticks);
    f.i64(o.metrics.instructions_fired);
    f.i64(o.metrics.mesh_messages);
    f.i64(o.metrics.serial_messages);
  }
  return f.digest().hi;
}

void ServeReport::write_json(std::ostream& os) const {
  os << "{\"config\": \"";
  util::json_escape(os, config_name);
  os << "\", \"seed\": " << seed;
  for (const auto& [name, field] : kScalars) {
    os << ", \"" << name << "\": " << this->*field;
  }
  os << ", \"digest\": " << digest() << "}";
}

ServeReport serve(const bytecode::Program& program,
                  const std::vector<std::int32_t>& methods,
                  const sim::MachineConfig& config,
                  const RequestStreamOptions& stream) {
  if (methods.empty()) {
    throw std::invalid_argument("serve: the method list is empty");
  }
  for (const std::int32_t m : methods) {
    if (m < 0 || static_cast<std::size_t>(m) >= program.methods.size()) {
      throw std::invalid_argument("serve: method index " + std::to_string(m) +
                                  " is outside the program's " +
                                  std::to_string(program.methods.size()) +
                                  " methods");
    }
  }
  const std::vector<Request> requests = make_request_stream(
      static_cast<std::int32_t>(methods.size()), stream);
  ServerState state(program, methods, config, requests);
  state.run();
  ServeReport rep = state.report(config, stream.seed);
  bool one_flag = true;
  for (const RequestOutcome& o : rep.outcomes) {
    one_flag = one_flag && int{o.completed} + int{o.rejected} +
                                   int{o.timed_out} == 1;
  }
  if (!one_flag ||
      rep.requests != rep.completed + rep.rejected + rep.timed_out) {
    throw std::logic_error(
        "serve: request outcomes do not partition the stream");
  }
  return rep;
}

}  // namespace javaflow::serve
