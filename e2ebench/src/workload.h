// The benchmark's workloads. Each one builds its deployment from one seed
// on a SerialExecutor (set-up), then runs an open-loop schedule of user
// operations in simulated time (the measured phase), checking every
// answer against its own reference as it completes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace pierbench {

struct Params {
  uint64_t seed = 1;
  /// Host seconds the measured phase is sized for. The work it implies is
  /// fixed (a calibrated simulated horizon or operation count), so every
  /// simulated-time result depends only on (seed, seconds).
  double seconds = 10;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Trace generation, deployment build, preload and warm-up.
  virtual void Setup(SetupTimes* times) = 0;

  /// Issues the measured schedule and runs it with RunMeasured until every
  /// operation has completed or its deadline passed.
  virtual void Measure(Recorder* rec, PhaseClock* clock) = 0;

  /// Layer counters of the measured phase (called after Measure), keyed by
  /// the per-layer metric names.
  virtual void LayerMetrics(const Recorder& rec, Metrics* out) = 0;

  /// Times a fixed sample of layer calls that the schedule does not make
  /// in isolation (RoutingTable::NextHop, plan compilation). Runs after
  /// the measured phase and touches no simulation state.
  virtual void SampleCalls(Tracer* tracer) { (void)tracer; }

  /// Routed-hop total of the whole run, for the fingerprint.
  virtual uint64_t TotalHops() const = 0;

  virtual sim::Executor& executor() = 0;
  virtual sim::Network& network() = 0;
};

/// The workload names, in the order the benchmark lists them.
const std::vector<std::string>& WorkloadNames();

/// Creates workload `name` (null for an unknown name). `tracer` is null on
/// an untraced run.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params, Tracer* tracer);

std::unique_ptr<Workload> MakeDhtGetSteady(const Params& p, Tracer* t);
std::unique_ptr<Workload> MakePierPublishSearch(const Params& p, Tracer* t);
std::unique_ptr<Workload> MakeSec7Hybrid(const Params& p, Tracer* t);

}  // namespace pierbench
