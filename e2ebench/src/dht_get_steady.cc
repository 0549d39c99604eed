// dht_get_steady: steady Get load on a 10k-node Chord ring with
// replication 3 and 1-3 ms links — the shape of BM_ShardScale_Serial/10000
// (2 ms links), made checkable.
// Every node pumps Gets for preloaded keys at jittered ~200 ms intervals
// (open loop: the next Get is due whether or not the last one answered),
// so the executor queue and Chord next-hop selection do almost all the
// work; PIER, Gnutella and the hybrid layer are bypassed.
#include <cstring>

#include "common/hashing.h"
#include "common/rng.h"
#include "dht/builder.h"
#include "workload.h"

namespace pierbench {
namespace {

using pierstack::Mix64;
using pierstack::Rng;
using pierstack::Status;
namespace dht = pierstack::dht;

constexpr size_t kNodes = 10000;
constexpr size_t kKeys = 20000;
constexpr size_t kValueBytes = 24;
constexpr const char* kNs = "kv";
/// Simulated seconds of Get load per requested host second (calibrated so
/// the measured phase takes about `seconds` of host time on a 4-core
/// x86-64 container).
constexpr double kSimSecondsPerHostSecond = 0.62;
constexpr sim::SimTime kWarm = 500 * sim::kMillisecond;
constexpr sim::SimTime kMeanInterval = 200 * sim::kMillisecond;

class DhtGetSteady : public Workload {
 public:
  DhtGetSteady(const Params& p, Tracer* tracer) : p_(p), tracer_(tracer) {}

  void Setup(SetupTimes* times) override {
    uint64_t t0 = HostNs();
    Rng rng(SubSeed(p_.seed, 1));
    keys_.resize(kKeys);
    for (auto& k : keys_) k = rng.Next();
    times->trace_s = (HostNs() - t0) * 1e-9;

    t0 = HostNs();
    exec_ = MakeExecutor(tracer_);
    network_ = std::make_unique<sim::Network>(
        exec_.get(),
        std::make_unique<sim::UniformLatency>(1 * sim::kMillisecond,
                                              3 * sim::kMillisecond),
        SubSeed(p_.seed, 2));
    dht::DhtOptions opts;
    opts.overlay = dht::OverlayKind::kChord;
    opts.replication = 3;
    opts.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
    dht_ = std::make_unique<dht::DhtDeployment>(network_.get(), kNodes, opts,
                                                SubSeed(p_.seed, 3));
    if (tracer_ != nullptr) {
      for (size_t i = 0; i < kNodes; ++i) {
        tracer_->SetHostClass(dht_->node(i)->host(), HostClass::kDht);
      }
    }
    times->deploy_s = (HostNs() - t0) * 1e-9;

    // Preload every key once, from a random node, and wait for the acks.
    t0 = HostNs();
    size_t acked = 0;
    for (size_t k = 0; k < kKeys; ++k) {
      dht_->node(rng.NextBelow(kNodes))
          ->Put(kNs, keys_[k], ValueOf(keys_[k]), 0, [&acked](Status s) {
            if (s.ok()) ++acked;
          });
    }
    exec_->Run();
    if (acked != kKeys) {
      preload_error_ = std::to_string(kKeys - acked) + " preload puts failed";
    }
    // Warm-up: the same Get load, unmeasured, so route caches fill.
    Recorder warm;
    StartLoad(exec_->now() + kWarm, &warm);
    exec_->Run();
    times->warm_s = (HostNs() - t0) * 1e-9;
  }

  void Measure(Recorder* rec, PhaseClock* clock) override {
    if (!preload_error_.empty()) rec->Wrong(0, preload_error_);
    before_ = dht_->metrics();
    auto horizon = static_cast<sim::SimTime>(
        p_.seconds * kSimSecondsPerHostSecond * sim::kSecond);
    sim::SimTime end = exec_->now() + horizon;
    StartLoad(end, rec);
    RunMeasured(exec_.get(), end, clock);
    after_ = dht_->metrics();
  }

  void LayerMetrics(const Recorder&, Metrics* out) override {
    uint64_t delivered = after_.routes_delivered - before_.routes_delivered;
    uint64_t hops = after_.total_hops - before_.total_hops;
    uint64_t hits = after_.route_cache_hits - before_.route_cache_hits;
    uint64_t misses = after_.route_cache_misses - before_.route_cache_misses;
    out->Set("dht.hops_per_route", Ratio(hops, delivered));
    out->Set("dht.route_cache_hit_ratio", Ratio(hits, hits + misses));
    out->Set("dht.retries", after_.get_retries - before_.get_retries);
    out->Set("dht.routes_dropped",
             after_.routes_dropped - before_.routes_dropped);
  }

  void SampleCalls(Tracer* tracer) override {
    constexpr size_t kSample = 200000;
    Rng rng(SubSeed(p_.seed, 4));
    std::vector<std::pair<const dht::RoutingTable*, dht::Key>> pairs(kSample);
    for (auto& [table, key] : pairs) {
      table = &dht_->node(rng.NextBelow(kNodes))->routing();
      key = rng.Next();
    }
    uint64_t sink = 0;
    uint64_t t0 = HostNs();
    for (const auto& [table, key] : pairs) sink += table->NextHop(key).host;
    tracer->AddBulk(Call::kDhtNextHop, kSample, HostNs() - t0);
    sink_ += sink;
  }

  uint64_t TotalHops() const override { return dht_->metrics().total_hops; }
  sim::Executor& executor() override { return *exec_; }
  sim::Network& network() override { return *network_; }

 private:
  static std::vector<uint8_t> ValueOf(dht::Key key) {
    std::vector<uint8_t> v(kValueBytes);
    for (size_t i = 0; i < kValueBytes; i += 8) {
      uint64_t w = Mix64(key + i);
      std::memcpy(v.data() + i, &w, 8);
    }
    return v;
  }

  /// Arms every node's open-loop Get pump until simulated time `end`.
  void StartLoad(sim::SimTime end, Recorder* rec) {
    sim::SimTime start = exec_->now();
    for (size_t i = 0; i < kNodes; ++i) {
      uint64_t r = Mix64(SubSeed(p_.seed, 5) ^ (i * 0x9E3779B97F4A7C15ull) ^
                         start);
      Arm(i, start + r % kMeanInterval, end, rec);
    }
  }

  void Arm(size_t i, sim::SimTime at, sim::SimTime end, Recorder* rec) {
    if (at >= end) return;
    exec_->ScheduleAt(dht_->node(i)->host(), at,
                      [this, i, end, rec] { Pump(i, end, rec); });
  }

  /// One node's load generator: issues a Get for a random preloaded key
  /// and schedules its next Get 100..300 ms later.
  void Pump(size_t i, sim::SimTime end, Recorder* rec) {
    sim::SimTime now = exec_->now();
    uint64_t r = Mix64(SubSeed(p_.seed, 6) ^ (i * 0x9E3779B97F4A7C15ull) ^ now);
    size_t k = static_cast<size_t>(r % kKeys);
    uint64_t op = rec->Begin(now);
    Timed(tracer_, Call::kDhtGet, op, now, [&] {
      dht_->node(i)->Get(
          kNs, keys_[k],
          [this, rec, op, k](Status s,
                             std::vector<std::vector<uint8_t>> values) {
            Check(rec, op, k, s, values);
          });
    });
    Arm(i, now + kMeanInterval / 2 + (r >> 32) % kMeanInterval, end, rec);
  }

  void Check(Recorder* rec, uint64_t op, size_t k, const Status& s,
             const std::vector<std::vector<uint8_t>>& values) {
    uint64_t h = 0;
    for (const auto& v : values) {
      h = pierstack::HashCombine(
          h, pierstack::Fnv1a64({reinterpret_cast<const char*>(v.data()),
                                 v.size()}));
    }
    bool right = values.size() == 1 && values[0] == ValueOf(keys_[k]);
    if (s.ok() && !right) {
      rec->Wrong(op, "Get(key #" + std::to_string(k) + ") returned " +
                         std::to_string(values.size()) +
                         " value(s), not the one that was Put");
    }
    rec->Answer(s.ok() && right ? 1 : 0, 1);
    rec->Complete(op, exec_->now(), s.ok(), h);
  }

  Params p_;
  Tracer* tracer_;
  std::vector<dht::Key> keys_;
  std::unique_ptr<sim::Executor> exec_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<dht::DhtDeployment> dht_;
  dht::DhtMetrics before_, after_;
  std::string preload_error_;
  uint64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDhtGetSteady(const Params& p, Tracer* t) {
  return std::make_unique<DhtGetSteady>(p, t);
}

}  // namespace pierbench
