#include "harness.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/hashing.h"

namespace pierbench {

void TimeStat::Add(uint64_t ns) {
  ++count;
  sum_ns += ns;
  size_t bucket = 0;
  while (bucket + 1 < std::size(log2_hist) && (ns >> (bucket + 1)) != 0) {
    ++bucket;
  }
  ++log2_hist[bucket];
}

const char* CallName(Call c) {
  switch (c) {
    case Call::kDhtGet: return "dht.get";
    case Call::kDhtNextHop: return "dht.next_hop";
    case Call::kSearchCompile: return "piersearch.compile";
    case Call::kSearchCall: return "piersearch.search";
    case Call::kFetchItems: return "piersearch.fetch_items";
    case Call::kPublishFile: return "piersearch.publish_file";
    case Call::kGnutellaStartQuery: return "gnutella.start_query";
    case Call::kHybridQuery: return "hybrid.query";
    case Call::kCount: break;
  }
  return "?";
}

void Tracer::SetHostClass(sim::HostId h, HostClass k) {
  if (h >= host_class_.size()) host_class_.resize(h + 1, HostClass::kOther);
  host_class_[h] = k;
}

HostClass Tracer::ClassOf(sim::HostId h) const {
  if (h == sim::kDriverHost) return HostClass::kDriver;
  return h < host_class_.size() ? host_class_[h] : HostClass::kOther;
}

void Tracer::Reset() {
  for (auto& c : calls_) c = TimeStat{};
  for (auto& h : handlers_) h = TimeStat{};
  spans_.clear();
  schedules = cancels = schedule_ns = pending_peak = 0;
  run_ns = handler_total_ns = handler_sched_ns = driver_call_ns = 0;
}

sim::EventId TracingExecutor::ScheduleAt(sim::HostId owner, sim::SimTime t,
                                         std::function<void()> fn) {
  std::function<void()> wrapped = [this, owner, fn = std::move(fn)]() {
    RunHandler(owner, fn);
  };
  uint64_t t0 = HostNs();
  sim::EventId id = inner_->ScheduleAt(owner, t, std::move(wrapped));
  uint64_t ns = HostNs() - t0;
  ++tracer_->schedules;
  tracer_->schedule_ns += ns;
  if (tracer_->in_handler) tracer_->handler_sched_ns += ns;
  tracer_->pending_peak =
      std::max<uint64_t>(tracer_->pending_peak, inner_->pending());
  return id;
}

bool TracingExecutor::Cancel(sim::EventId id) {
  ++tracer_->cancels;
  return inner_->Cancel(id);
}

size_t TracingExecutor::Run(size_t limit) {
  uint64_t t0 = HostNs();
  size_t n = inner_->Run(limit);
  tracer_->run_ns += HostNs() - t0;
  return n;
}

size_t TracingExecutor::RunUntil(sim::SimTime t) {
  uint64_t t0 = HostNs();
  size_t n = inner_->RunUntil(t);
  tracer_->run_ns += HostNs() - t0;
  return n;
}

void TracingExecutor::RunHandler(sim::HostId owner,
                                 const std::function<void()>& fn) {
  uint64_t sched_before = tracer_->handler_sched_ns;
  tracer_->in_handler = true;
  uint64_t t0 = HostNs();
  fn();
  uint64_t ns = HostNs() - t0;
  tracer_->in_handler = false;
  tracer_->handler_total_ns += ns;
  uint64_t sched = tracer_->handler_sched_ns - sched_before;
  tracer_->handlers_[static_cast<size_t>(tracer_->ClassOf(owner))].Add(
      ns > sched ? ns - sched : 0);
}

std::unique_ptr<sim::Executor> MakeExecutor(Tracer* tracer) {
  auto serial = std::make_unique<sim::SerialExecutor>();
  if (tracer == nullptr) return serial;
  return std::make_unique<TracingExecutor>(std::move(serial), tracer);
}

uint64_t Recorder::Begin(sim::SimTime issue) {
  issue_.push_back(issue);
  done_.push_back(kPending);
  ok_.push_back(false);
  timed_.push_back(true);
  return issue_.size();
}

void Recorder::Complete(uint64_t op, sim::SimTime now, bool ok,
                        uint64_t answer_hash, bool timed) {
  if (done_[op - 1] != kPending) {
    Wrong(op, "completion callback fired twice");
    return;
  }
  done_[op - 1] = now;
  ok_[op - 1] = ok;
  timed_[op - 1] = timed;
  ++completed_;
  digest_ = pierstack::Mix64(digest_ ^ pierstack::Mix64(op) ^
                             pierstack::Mix64(now + 1) ^ answer_hash ^
                             (ok ? 0x0c : 0xfa));
}

void Recorder::Answer(size_t correct, size_t reference) {
  correct_ += correct;
  reference_ += reference;
}

void Recorder::Wrong(uint64_t op, const std::string& why) {
  if (!first_wrong_.empty()) return;
  sim::SimTime issued =
      op >= 1 && op <= issue_.size() ? issue_[op - 1] : 0;
  first_wrong_ = "operation " + std::to_string(op) + " (issued at " +
                 std::to_string(issued) + " us simulated): " + why;
}

uint64_t Recorder::failed() const {
  uint64_t ok = 0;
  for (size_t i = 0; i < ok_.size(); ++i) {
    if (ok_[i] && done_[i] != kPending) ++ok;
  }
  return issue_.size() - ok + std::min(ok, partials_);
}

std::vector<uint64_t> Recorder::OkLatencies() const {
  std::vector<uint64_t> out;
  out.reserve(issue_.size());
  for (size_t i = 0; i < issue_.size(); ++i) {
    if (ok_[i] && timed_[i] && done_[i] != kPending) {
      out.push_back(done_[i] - issue_[i]);
    }
  }
  return out;
}

namespace {

/// Tag-prefix class of a network message tag: 0 dht routing/data,
/// 1 dht maintenance, 2 pier direct, 3 gnutella, -1 other.
int TagClass(const std::string& tag) {
  auto starts = [&](const char* p) { return tag.rfind(p, 0) == 0; };
  if (starts("dht.maint") || starts("dht.resync") || starts("dht.transfer")) {
    return 1;
  }
  if (starts("dht.")) return 0;
  if (starts("pier.")) return 2;
  if (starts("gnutella.")) return 3;
  return -1;
}

}  // namespace

TrafficDelta TrafficSince(const sim::Network& net,
                          const sim::NetworkMetrics& before) {
  const sim::NetworkMetrics& now = net.metrics();
  TrafficDelta d;
  d.bytes = now.total.bytes - before.total.bytes;
  d.dropped = now.dropped_messages - before.dropped_messages;
  for (const auto& [tag, c] : now.by_tag) {
    int k = TagClass(tag);
    if (k < 0) continue;
    auto it = before.by_tag.find(tag);
    uint64_t m0 = it == before.by_tag.end() ? 0 : it->second.messages;
    uint64_t b0 = it == before.by_tag.end() ? 0 : it->second.bytes;
    d.msgs[k] += c.messages - m0;
    d.bytes_by[k] += c.bytes - b0;
  }
  return d;
}

void Metrics::Set(const std::string& name, double value) {
  for (auto& [n, v] : items_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  items_.emplace_back(name, value);
}

double Metrics::Get(const std::string& name) const {
  for (const auto& [n, v] : items_) {
    if (n == name) return v;
  }
  return 0;
}

HostSpeedReference::HostSpeedReference()
    : slots_((32u << 20) / sizeof(Slot)) {
  for (size_t i = 0; i < slots_.size(); ++i) slots_[i].w[0] = i;
  heap_.reserve(16384);
  for (uint32_t i = 0; i < 16384; ++i) {
    rng_ = pierstack::Mix64(rng_);
    heap_.emplace_back(rng_ % 1000000,
                       static_cast<uint32_t>(rng_ % slots_.size()));
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

double HostSpeedReference::NsPerStep() {
  constexpr int kSteps = 50000;
  uint64_t t0 = HostNs();
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    auto [t, h] = heap_.back();
    Slot& slot = slots_[h];
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    slot.w[rng_ & 7] += t;
    heap_.back() = {t + 1 + (rng_ >> 40) % 1000,
                    static_cast<uint32_t>((rng_ ^ slot.w[0]) % slots_.size())};
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return double(HostNs() - t0) / kSteps;
}

void RunMeasured(sim::Executor* exec, sim::SimTime end, PhaseClock* clock) {
  constexpr int kSlices = 40;
  sim::SimTime start = exec->now();
  auto probe = [clock] {
    uint64_t t0 = HostNs();
    double ns = clock->ref->NsPerStep();
    clock->probe_s += (HostNs() - t0) * 1e-9;
    return ns;
  };
  double before = probe();
  for (int k = 1; k <= kSlices + 1; ++k) {
    uint64_t t0 = HostNs();
    if (k <= kSlices) {
      exec->RunUntil(start + (end - start) * k / kSlices);
    } else {
      exec->Run();  // drain: every operation completes or times out
    }
    double slice_s = (HostNs() - t0) * 1e-9;
    double after = probe();
    clock->run_s += slice_s;
    clock->ref_weighted += slice_s * 0.5 * (before + after);
    before = after;
  }
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return pierstack::Mix64(pierstack::Mix64(seed) ^
                          (salt * 0x9E3779B97F4A7C15ull));
}

double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]);
}

}  // namespace pierbench
