// pierbench: runs one benchmark workload and prints its metrics.
//
//   pierbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice on the same seed, untraced and then traced, fails
// unless both give the same fingerprint, and prints the per-layer metrics.
// Every metric line names its unit, its better direction and whether it is
// host time (what the simulator costs to run) or simulated time (what the
// modelled network would take; it repeats exactly under a fixed seed).
// The last line of stdout is one JSON object. On a wrong answer or a
// fingerprint mismatch the program names the first bad operation on stderr
// and exits 1 without it.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "workload.h"

namespace pierbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  const char* base;    ///< "host", "simulated" or "count"
};

// End-to-end metrics: one untraced run.
const MetricSpec kEndToEnd[] = {
    {"ops_per_s", "ops/s", "higher", "host"},
    {"setup_s", "s", "lower", "host"},
    {"peak_rss_mb", "MB", "lower", "host"},
    {"latency_p50_ms", "ms", "lower", "simulated"},
    {"latency_p99_ms", "ms", "lower", "simulated"},
    {"answer_recall", "fraction", "higher", "simulated"},
    {"ok_ops_frac", "fraction", "higher", "simulated"},
    {"failed_ops_frac", "fraction", "lower", "simulated"},
    {"net_bytes_per_op", "bytes", "lower", "simulated"},
};

// Per-layer metrics: the traced run (see e2ebench/metrics.json for what
// each should move).
const MetricSpec kPerLayer[] = {
    {"host.raw_ops_per_s", "ops/s", "higher", "host"},
    {"host.ref_ns_per_step", "ns", "lower", "host"},
    {"sim.events", "count", "lower", "count"},
    {"sim.ns_per_event", "ns", "lower", "host"},
    {"sim.queue_ns_per_event", "ns", "lower", "host"},
    {"sim.schedule_ns_per_call", "ns", "lower", "host"},
    {"sim.schedules_per_event", "1/event", "lower", "count"},
    {"sim.cancels_per_event", "1/event", "lower", "count"},
    {"sim.pending_peak", "count", "lower", "count"},
    {"sim.allocs_per_event", "allocs/event", "lower", "count"},
    {"net.msgs.dht", "msgs/op", "lower", "simulated"},
    {"net.msgs.dht_maint", "msgs/op", "lower", "simulated"},
    {"net.msgs.pier", "msgs/op", "lower", "simulated"},
    {"net.msgs.gnutella", "msgs/op", "lower", "simulated"},
    {"net.bytes.dht", "bytes/op", "lower", "simulated"},
    {"net.bytes.dht_maint", "bytes/op", "lower", "simulated"},
    {"net.bytes.pier", "bytes/op", "lower", "simulated"},
    {"net.bytes.gnutella", "bytes/op", "lower", "simulated"},
    {"net.dropped", "count", "lower", "simulated"},
    {"dht.handler_ns_per_event", "ns", "lower", "host"},
    {"dht.next_hop_ns", "ns", "lower", "host"},
    {"dht.get_call_ns", "ns", "lower", "host"},
    {"dht.hops_per_route", "hops", "lower", "simulated"},
    {"dht.route_cache_hit_ratio", "fraction", "higher", "simulated"},
    {"dht.retries", "count", "lower", "simulated"},
    {"dht.routes_dropped", "count", "lower", "simulated"},
    {"pier.stage_msgs_per_search", "msgs", "lower", "simulated"},
    {"pier.entries_shipped_per_search", "entries", "lower", "simulated"},
    {"pier.tuples_per_publish_msg", "tuples/msg", "higher", "simulated"},
    {"pier.fetch_keys_per_multiget", "keys/msg", "higher", "simulated"},
    {"pier.partial_results", "count", "lower", "simulated"},
    {"pier.plans_shed", "count", "lower", "simulated"},
    {"pier.tuples_dropped_deserialize", "count", "lower", "simulated"},
    {"piersearch.compile_ns", "ns", "lower", "host"},
    {"piersearch.search_call_ns", "ns", "lower", "host"},
    {"piersearch.publish_file_ns", "ns", "lower", "host"},
    {"piersearch.results_per_search", "hits", "higher", "simulated"},
    {"gnutella.handler_ns_per_event", "ns", "lower", "host"},
    {"gnutella.start_query_ns", "ns", "lower", "host"},
    {"gnutella.msgs_per_query", "msgs", "lower", "simulated"},
    {"hybrid.query_call_ns", "ns", "lower", "host"},
    {"hybrid.fallback_ratio", "fraction", "lower", "simulated"},
    {"hybrid.dht_answered_ratio", "fraction", "higher", "simulated"},
    {"hybrid.rare_published_per_query", "files", "lower", "simulated"},
    {"hybrid.empty_query_reduction", "fraction", "higher", "simulated"},
    {"setup.trace_s", "s", "lower", "host"},
    {"setup.deploy_s", "s", "lower", "host"},
    {"setup.warm_s", "s", "lower", "host"},
    {"trace.overhead_frac", "fraction", "lower", "host"},
    {"trace.attributed_frac", "fraction", "higher", "host"},
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Pass {
  Metrics metrics;
  uint64_t fingerprint = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t events = 0;
  uint64_t latency_samples = 0;
  double measured_s = 0;
  std::string wrong;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Builds the workload (`setups` times; the last one is measured), runs
/// the measured phase, and collects its metrics and fingerprint.
Pass RunPass(const std::string& name, const Params& params, Tracer* tracer,
             int setups, HostSpeedReference* ref) {
  Pass out;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  SetupTimes times;
  for (int i = 0; i < setups; ++i) {
    w.reset();  // tear the previous deployment down before building again
    w = MakeWorkload(name, params, tracer);
    times = SetupTimes{};
    double ref_before = ref->NsPerStep();
    w->Setup(&times);
    double ref_ns = 0.5 * (ref_before + ref->NsPerStep());
    setup_s.push_back(times.total() * HostSpeedReference::kNominalNsPerStep /
                      ref_ns);
  }

  if (tracer != nullptr) tracer->Reset();
  Recorder rec;
  sim::Executor& exec = w->executor();
  uint64_t events0 = exec.events_executed();
  uint64_t allocs0 = AllocCount();
  sim::NetworkMetrics traffic0 = w->network().metrics();
  PhaseClock clock;
  clock.ref = ref;
  uint64_t t0 = HostNs();
  w->Measure(&rec, &clock);
  double wall_s = (HostNs() - t0) * 1e-9 - clock.probe_s;
  uint64_t allocs = AllocCount() - allocs0;
  uint64_t events = exec.events_executed() - events0;
  TrafficDelta traffic = TrafficSince(w->network(), traffic0);

  out.attempted = rec.attempted();
  out.failed = rec.failed();
  out.events = events;
  out.measured_s = wall_s;
  out.wrong = rec.first_wrong();
  double ops = static_cast<double>(rec.attempted());
  std::vector<uint64_t> lat = rec.OkLatencies();
  out.latency_samples = lat.size();

  Metrics& m = out.metrics;
  // Host throughput scaled to the reference speed measured around each
  // slice of the phase (see HostSpeedReference).
  double raw_ops_per_s = Ratio(rec.completed(), wall_s);
  m.Set("ops_per_s", raw_ops_per_s * clock.RefNsPerStep() /
                         HostSpeedReference::kNominalNsPerStep);
  m.Set("setup_s", Median(setup_s));
  m.Set("latency_p50_ms", Percentile(&lat, 50) / sim::kMillisecond);
  m.Set("latency_p99_ms", Percentile(&lat, 99) / sim::kMillisecond);
  m.Set("answer_recall", rec.recall());
  m.Set("failed_ops_frac", Ratio(rec.failed(), ops));
  m.Set("ok_ops_frac", 1.0 - Ratio(rec.failed(), ops));
  m.Set("net_bytes_per_op", Ratio(traffic.bytes, ops));

  // Per-layer figures; zero where a workload bypasses the layer.
  for (const MetricSpec& s : kPerLayer) m.Set(s.name, 0);
  m.Set("host.raw_ops_per_s", raw_ops_per_s);
  m.Set("host.ref_ns_per_step", clock.RefNsPerStep());
  m.Set("sim.events", events);
  m.Set("sim.ns_per_event", Ratio(wall_s * 1e9, events));
  m.Set("sim.allocs_per_event", Ratio(allocs, events));
  static const char* kClass[] = {"dht", "dht_maint", "pier", "gnutella"};
  for (int k = 0; k < 4; ++k) {
    m.Set(std::string("net.msgs.") + kClass[k], Ratio(traffic.msgs[k], ops));
    m.Set(std::string("net.bytes.") + kClass[k],
          Ratio(traffic.bytes_by[k], ops));
  }
  m.Set("net.dropped", traffic.dropped);
  m.Set("setup.trace_s", times.trace_s);
  m.Set("setup.deploy_s", times.deploy_s);
  m.Set("setup.warm_s", times.warm_s);
  w->LayerMetrics(rec, &m);

  if (tracer != nullptr) {
    const Tracer& t = *tracer;
    uint64_t queue_ns = t.run_ns - std::min(t.run_ns, t.handler_total_ns);
    m.Set("sim.queue_ns_per_event", Ratio(queue_ns, events));
    m.Set("sim.schedule_ns_per_call", Ratio(t.schedule_ns, t.schedules));
    m.Set("sim.schedules_per_event", Ratio(t.schedules, events));
    m.Set("sim.cancels_per_event", Ratio(t.cancels, events));
    m.Set("sim.pending_peak", t.pending_peak);
    m.Set("dht.handler_ns_per_event", t.handler(HostClass::kDht).MeanNs());
    m.Set("gnutella.handler_ns_per_event",
          t.handler(HostClass::kGnutella).MeanNs());
    m.Set("dht.get_call_ns", t.call(Call::kDhtGet).MeanNs());
    m.Set("piersearch.search_call_ns", t.call(Call::kSearchCall).MeanNs());
    m.Set("piersearch.publish_file_ns", t.call(Call::kPublishFile).MeanNs());
    m.Set("hybrid.query_call_ns", t.call(Call::kHybridQuery).MeanNs());
    // Coverage of the outside trace: executor queue, handler self time of
    // the claimed host classes, schedule calls and timed driver calls,
    // over the measured phase's wall time.
    uint64_t handler_self = 0;
    for (HostClass k : {HostClass::kDht, HostClass::kGnutella,
                        HostClass::kHybrid, HostClass::kDriver}) {
      handler_self += t.handler(k).sum_ns;
    }
    m.Set("trace.attributed_frac",
          Ratio(queue_ns + handler_self + t.schedule_ns + t.driver_call_ns,
                wall_s * 1e9));
    // Calls timed outside the schedule, after the measured phase.
    w->SampleCalls(tracer);
    m.Set("dht.next_hop_ns", t.call(Call::kDhtNextHop).MeanNs());
    m.Set("piersearch.compile_ns", t.call(Call::kSearchCompile).MeanNs());
  }

  const sim::NetworkMetrics& net = w->network().metrics();
  uint64_t fp = pierstack::Mix64(exec.events_executed());
  fp = pierstack::Mix64(fp ^ exec.now());
  fp = pierstack::Mix64(fp ^ net.total.messages);
  fp = pierstack::Mix64(fp ^ net.total.bytes);
  fp = pierstack::Mix64(fp ^ net.dropped_messages);
  fp = pierstack::Mix64(fp ^ w->TotalHops());
  fp = pierstack::Mix64(fp ^ rec.answer_digest());
  out.fingerprint = fp;
  return out;
}

void PrintMetric(const MetricSpec& s, double v, const Pass& p) {
  std::printf("  %-34s %18.6f %-12s %-6s better, %s", s.name, v, s.unit,
              s.better, s.base);
  if (std::strncmp(s.name, "latency_p", 9) == 0) {
    std::printf(" (n=%" PRIu64 ")", p.latency_samples);
  }
  std::printf("\n");
}

void PrintJson(const Pass& p, const MetricSpec* specs, size_t n) {
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              p.attempted, p.failed);
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", specs[i].name, p.metrics.Get(specs[i].name),
                specs[i].unit);
  }
  std::printf("}}\n");
}

/// Writes the call spans (one per timed layer call, keyed by request id)
/// and, after them, the per-host-class handler self-time aggregates: count,
/// sum and log2 histogram (bucket b counts durations in [2^b, 2^(b+1)) ns).
bool WriteSpans(const char* path, const Tracer& t) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tcall\tsim_us\thost_ns\n");
  for (const CallSpan& s : t.spans()) {
    std::fprintf(f, "%" PRIu64 "\t%s\t%" PRIu64 "\t%" PRIu64 "\n", s.op,
                 CallName(s.call), s.sim_at, s.host_ns);
  }
  static const char* kClassName[] = {"other", "dht", "gnutella", "hybrid",
                                     "driver"};
  for (size_t k = 0; k < static_cast<size_t>(HostClass::kCount); ++k) {
    const TimeStat& h = t.handler(static_cast<HostClass>(k));
    std::fprintf(f, "# handler %s count %" PRIu64 " sum_ns %" PRIu64 " log2:",
                 kClassName[k], h.count, h.sum_ns);
    for (uint64_t b : h.log2_hist) std::fprintf(f, " %" PRIu64, b);
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pierbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n"
               "workloads:");
  for (const auto& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  Params params;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    char* end = nullptr;
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      params.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (flag == "--seconds") {
      params.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && params.seconds > 0 &&
                     params.seconds <= 600;
    } else if (flag == "--trace") {
      trace = std::strcmp(val, "0") == 0 ? 0
              : std::strcmp(val, "1") == 0 ? 1
                                           : -1;
    } else if (flag == "--spans") {
      spans_path = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || trace < 0 ||
      std::find(WorkloadNames().begin(), WorkloadNames().end(), workload) ==
          WorkloadNames().end()) {
    return Usage();
  }

  std::printf("pierbench: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d (SerialExecutor, one thread)\n",
              workload.c_str(), params.seed, params.seconds, trace);
  std::fflush(stdout);

  // The reference buffer stays resident for the whole run; its footprint
  // is taken off the peak RSS so peak_rss_mb is the workload's own.
  double rss_before = PeakRssMb();
  HostSpeedReference ref;
  double ref_mb = PeakRssMb() - rss_before;
  Pass plain = RunPass(workload, params, nullptr, trace ? 1 : kSetups, &ref);
  plain.metrics.Set("peak_rss_mb", PeakRssMb() - ref_mb);
  if (!plain.wrong.empty()) {
    std::fprintf(stderr, "pierbench: WRONG ANSWER in %s seed %" PRIu64
                 ": %s\n", workload.c_str(), params.seed, plain.wrong.c_str());
    return 1;
  }
  std::printf("fingerprint %016" PRIx64 " (events %" PRIu64
              " in the measured phase, %.3f host s)\n",
              plain.fingerprint, plain.events, plain.measured_s);
  std::printf("open-loop schedule: operations issue at their due simulated "
              "time, so generator lateness is 0 by construction\n");

  if (trace == 0) {
    std::printf("end-to-end metrics:\n");
    for (const MetricSpec& s : kEndToEnd) {
      PrintMetric(s, plain.metrics.Get(s.name), plain);
    }
    PrintJson(plain, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  Tracer tracer;
  Pass traced = RunPass(workload, params, &tracer, 1, &ref);
  if (!traced.wrong.empty()) {
    std::fprintf(stderr, "pierbench: WRONG ANSWER in traced %s seed %" PRIu64
                 ": %s\n", workload.c_str(), params.seed, traced.wrong.c_str());
    return 1;
  }
  if (traced.fingerprint != plain.fingerprint) {
    std::fprintf(stderr,
                 "pierbench: traced fingerprint %016" PRIx64
                 " != untraced %016" PRIx64 ": the trace perturbed the run\n",
                 traced.fingerprint, plain.fingerprint);
    return 1;
  }
  std::printf("traced fingerprint %016" PRIx64 " matches the untraced run\n",
              traced.fingerprint);
  // Host-cost figures of the executor itself come from the untraced pass,
  // which runs the program without the decorator's clock reads.
  traced.metrics.Set("sim.ns_per_event",
                     plain.metrics.Get("sim.ns_per_event"));
  traced.metrics.Set("sim.allocs_per_event",
                     plain.metrics.Get("sim.allocs_per_event"));
  traced.metrics.Set("trace.overhead_frac",
                     Ratio(traced.measured_s, plain.measured_s) - 1.0);
  if (!spans_path.empty()) {
    if (!WriteSpans(spans_path.c_str(), tracer)) {
      std::fprintf(stderr, "pierbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    std::printf("wrote %zu call spans to %s\n", tracer.spans().size(),
                spans_path.c_str());
  }
  std::printf("per-layer metrics:\n");
  for (const MetricSpec& s : kPerLayer) {
    PrintMetric(s, traced.metrics.Get(s.name), traced);
  }
  plain.metrics = traced.metrics;
  PrintJson(plain, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace pierbench

int main(int argc, char** argv) { return pierbench::Main(argc, argv); }
