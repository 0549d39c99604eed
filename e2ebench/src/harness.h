// Shared machinery of the end-to-end benchmark: the outside-in tracer (a
// timing decorator around the sim::Executor seam plus timers around calls
// into each layer's public functions), the per-operation recorder that
// checks answers and collects simulated-time latencies, and the metric
// sink the workloads report into.
//
// Nothing here reaches inside src/: every number is taken at a public
// boundary, so the program under test is exactly the one users link.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/executor.h"
#include "sim/network.h"

namespace pierbench {

namespace sim = pierstack::sim;

/// Host monotonic clock in nanoseconds.
inline uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Heap allocations made by this process so far (operator new is replaced
/// in alloc_counter.cc; the count covers the benchmark binary only).
uint64_t AllocCount();

/// Sum, count and a log2 histogram of host-time durations.
struct TimeStat {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t log2_hist[48] = {};

  void Add(uint64_t ns);
  double MeanNs() const { return count ? double(sum_ns) / count : 0.0; }
};

/// Layer calls the benchmark times from outside.
enum class Call : uint8_t {
  kDhtGet,             ///< dht::DhtNode::Get
  kDhtNextHop,         ///< dht::RoutingTable::NextHop (post-setup sample)
  kSearchCompile,      ///< BuildSearchPlan + ReorderByPostingSize
  kSearchCall,         ///< piersearch::SearchEngine::Search
  kFetchItems,         ///< piersearch::SearchEngine::FetchItems (FetchMany)
  kPublishFile,        ///< piersearch::Publisher::PublishFile
  kGnutellaStartQuery, ///< gnutella::GnutellaNode::StartQuery
  kHybridQuery,        ///< hybrid::HybridUltrapeer::Query
  kCount,
};
const char* CallName(Call c);

/// Owner classes the executor decorator attributes handler time to.
enum class HostClass : uint8_t {
  kOther,     ///< A host no workload claimed (unattributed time).
  kDht,       ///< DHT node hosts, including co-hosted PIER handlers.
  kGnutella,  ///< Gnutella-only hosts (leaves and plain ultrapeers).
  kHybrid,    ///< Gnutella hosts of hybrid ultrapeers (proxy + QRS snoop).
  kDriver,    ///< sim::kDriverHost: the benchmark's own schedule.
  kCount,
};

/// One timed layer call, child of the user operation that made it.
struct CallSpan {
  uint64_t op = 0;         ///< Request id (0 = not inside an operation).
  Call call = Call::kCount;
  sim::SimTime sim_at = 0; ///< Simulated time of the call.
  uint64_t host_ns = 0;    ///< Host-time duration.
};

/// In-memory outside-in trace: per-call timers and spans, per-host-class
/// handler self time, and the executor counters the decorator collects.
class Tracer {
 public:
  void AddCall(Call c, uint64_t op, sim::SimTime at, uint64_t ns) {
    calls_[static_cast<size_t>(c)].Add(ns);
    spans_.push_back(CallSpan{op, c, at, ns});
  }
  /// Adds `count` calls timed together as one `ns` interval (a tight
  /// sample loop, where a clock read per call would dominate).
  void AddBulk(Call c, uint64_t count, uint64_t ns) {
    TimeStat& s = calls_[static_cast<size_t>(c)];
    s.count += count;
    s.sum_ns += ns;
  }
  const TimeStat& call(Call c) const {
    return calls_[static_cast<size_t>(c)];
  }
  const TimeStat& handler(HostClass k) const {
    return handlers_[static_cast<size_t>(k)];
  }
  const std::vector<CallSpan>& spans() const { return spans_; }

  void SetHostClass(sim::HostId h, HostClass k);
  HostClass ClassOf(sim::HostId h) const;

  // Executor-decorator counters (see TracingExecutor).
  uint64_t schedules = 0;
  uint64_t cancels = 0;
  uint64_t schedule_ns = 0;
  uint64_t pending_peak = 0;
  uint64_t run_ns = 0;          ///< Wall time inside Run/RunUntil.
  uint64_t handler_total_ns = 0;///< Wall time inside handlers.
  uint64_t handler_sched_ns = 0;///< Schedule calls made from handlers.
  uint64_t driver_call_ns = 0;  ///< Timed layer calls made outside handlers.
  bool in_handler = false;

  /// Clears every counter, timer and span (the measured phase starts
  /// from zero; setup-time figures are copied out first).
  void Reset();

 private:
  friend class TracingExecutor;
  TimeStat calls_[static_cast<size_t>(Call::kCount)];
  TimeStat handlers_[static_cast<size_t>(HostClass::kCount)];
  std::vector<CallSpan> spans_;
  std::vector<HostClass> host_class_;
};

/// Times `fn` as a `c` call made for operation `op` when `tracer` is set;
/// runs it untimed otherwise.
template <typename F>
void Timed(Tracer* tracer, Call c, uint64_t op, sim::SimTime at, F&& fn) {
  if (tracer == nullptr) {
    fn();
    return;
  }
  uint64_t t0 = HostNs();
  fn();
  uint64_t ns = HostNs() - t0;
  tracer->AddCall(c, op, at, ns);
  if (!tracer->in_handler) tracer->driver_call_ns += ns;
}

/// Timing decorator around the Executor seam. It forwards every call to
/// the inner executor unchanged (so event order, and therefore the run's
/// fingerprint, is the untraced one) and wraps each handler to measure its
/// self time per owner class.
class TracingExecutor : public sim::Executor {
 public:
  TracingExecutor(std::unique_ptr<sim::Executor> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  TracingExecutor(const TracingExecutor&) = delete;
  TracingExecutor& operator=(const TracingExecutor&) = delete;

  sim::SimTime now() const override { return inner_->now(); }
  sim::EventId ScheduleAt(sim::HostId owner, sim::SimTime t,
                          std::function<void()> fn) override;
  bool Cancel(sim::EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(sim::SimTime t) override;
  size_t pending() const override { return inner_->pending(); }
  uint64_t events_executed() const override {
    return inner_->events_executed();
  }

 private:
  void RunHandler(sim::HostId owner, const std::function<void()>& fn);

  std::unique_ptr<sim::Executor> inner_;
  Tracer* tracer_;
};

/// Makes the workload's executor: a SerialExecutor, wrapped in the timing
/// decorator when `tracer` is set.
std::unique_ptr<sim::Executor> MakeExecutor(Tracer* tracer);

/// Per-operation bookkeeping: issue/completion in simulated time, answer
/// check against the workload's reference, and the answer digest that
/// feeds the determinism fingerprint.
class Recorder {
 public:
  /// Registers an operation issued at simulated time `issue`; returns its
  /// request id (1-based).
  uint64_t Begin(sim::SimTime issue);
  /// Completion callback of `op` at simulated time `now`. `ok` false marks
  /// a failed operation (error status, partial or shed result).
  /// `answer_hash` digests what it returned. `timed` false leaves the
  /// operation out of the latency percentiles: an API with no completion
  /// callback (Publisher::PublishFile) completes when the call returns.
  void Complete(uint64_t op, sim::SimTime now, bool ok, uint64_t answer_hash,
                bool timed = true);
  /// Adds `correct` answers out of `reference` expected ones to the
  /// recall tally.
  void Answer(size_t correct, size_t reference);
  /// Counts `n` completed operations as failed when the layer reports
  /// partial results only in aggregate (HybridUltrapeer's dht_partial).
  void AddPartials(uint64_t n) { partials_ += n; }
  /// Records a wrong answer; the first one is reported and fails the run.
  void Wrong(uint64_t op, const std::string& why);

  uint64_t attempted() const { return issue_.size(); }
  uint64_t completed() const { return completed_; }
  /// Failed, partial and never-completed operations.
  uint64_t failed() const;
  const std::string& first_wrong() const { return first_wrong_; }
  double recall() const {
    return reference_ ? double(correct_) / double(reference_) : 1.0;
  }
  uint64_t answer_digest() const { return digest_; }
  sim::SimTime issue_time(uint64_t op) const { return issue_[op - 1]; }
  /// Latencies (simulated microseconds) of timed operations that
  /// completed ok.
  std::vector<uint64_t> OkLatencies() const;

 private:
  static constexpr sim::SimTime kPending = UINT64_MAX;
  std::vector<sim::SimTime> issue_;
  std::vector<sim::SimTime> done_;  ///< kPending until completion.
  std::vector<bool> ok_;
  std::vector<bool> timed_;
  uint64_t completed_ = 0;
  uint64_t partials_ = 0;
  uint64_t correct_ = 0;
  uint64_t reference_ = 0;
  uint64_t digest_ = 0x5eed;
  std::string first_wrong_;
};

/// Network traffic of one measured phase, by tag-prefix class.
struct TrafficDelta {
  uint64_t bytes = 0;
  uint64_t dropped = 0;
  uint64_t msgs[4] = {};   ///< dht, dht_maint, pier, gnutella
  uint64_t bytes_by[4] = {};
};
/// Traffic since `before`, a copy of the counters taken before a measured
/// phase.
TrafficDelta TrafficSince(const sim::Network& net,
                          const sim::NetworkMetrics& before);

/// Metric sink: name -> value.
class Metrics {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Setup stage durations (host seconds).
struct SetupTimes {
  double trace_s = 0;
  double deploy_s = 0;
  double warm_s = 0;
  double total() const { return trace_s + deploy_s + warm_s; }
};

/// Host-speed reference: a fixed synthetic event loop with the simulator's
/// memory behaviour and none of its code — a binary heap of timed events
/// over a 32 MiB array of 64-byte host slots, each event touching one
/// random slot and scheduling a successor. Its time per step tracks the
/// shared-cache and memory contention of the moment, which moves the
/// memory-bound simulator's host time by 10-25% between runs on a shared
/// machine. Host-time results are scaled by it (a ratio within one run),
/// so they stay comparable across runs and still move with any change to
/// the program.
class HostSpeedReference {
 public:
  /// Reference speed the scaled results are expressed at (ns per step).
  static constexpr double kNominalNsPerStep = 250.0;

  HostSpeedReference();
  HostSpeedReference(const HostSpeedReference&) = delete;
  HostSpeedReference& operator=(const HostSpeedReference&) = delete;

  /// Runs a fixed number of steps; returns host ns per step.
  double NsPerStep();

 private:
  struct Slot {
    uint64_t w[8];
  };
  std::vector<Slot> slots_;
  std::vector<std::pair<uint64_t, uint32_t>> heap_;  ///< min-heap by time
  uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/// Host time of a measured phase, with the reference speed around it.
struct PhaseClock {
  HostSpeedReference* ref = nullptr;
  double run_s = 0;         ///< Host seconds inside the simulation slices.
  double probe_s = 0;       ///< Host seconds spent probing the reference.
  double ref_weighted = 0;  ///< Sum of slice seconds x slice ns/step.

  /// Reference ns/step over the phase, weighted by slice duration.
  double RefNsPerStep() const { return run_s > 0 ? ref_weighted / run_s : 0; }
};

/// Runs the issue interval [exec->now(), end] in equal simulated-time
/// slices and then the drain, probing the reference before and after each
/// slice (a slice's speed is the mean of its two probes).
void RunMeasured(sim::Executor* exec, sim::SimTime end, PhaseClock* clock);

/// Ratio helper that reports 0 for an empty base.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Deterministic sub-seed for component `salt` of a run seeded `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// p-th percentile (0..100, nearest-rank) of `v`, which it sorts.
double Percentile(std::vector<uint64_t>* v, double p);

}  // namespace pierbench
