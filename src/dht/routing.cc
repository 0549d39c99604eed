#include "dht/routing.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace pierstack::dht {

namespace {

/// Bit width of a ring distance — the expected-remaining-hops proxy
/// (halving the distance per hop is what greedy O(log N) routing does).
int DistanceBits(Key d) {
  return d == 0 ? 0 : 64 - __builtin_clzll(d);
}

/// The classic policy: delegate to the table's own greedy pick.
class ClassicGreedyPolicy : public NextHopPolicy {
 public:
  NextHopChoice Choose(const RoutingTable& table, Key target,
                       const LoadProbe&) const override {
    return NextHopChoice{table.NextHop(target), false};
  }
};

// Congestion-penalty tuning. All penalties are expressed in "expected
// extra hops", the same currency as the remaining-distance proxy, so a
// detour is taken exactly when the queueing it avoids is worth more than
// the ring progress it gives up.

/// In-flight messages a destination may queue before it counts as backed
/// up (plain request/reply pipelining is not congestion). Each queued
/// message past the slack costs one expected hop.
constexpr uint32_t kInflightMessageSlack = 2;
constexpr double kHopsPerInflightMessage = 1.0;
/// In-flight bytes tolerated before the byte penalty starts; each this-many
/// queued bytes past the slack cost one expected hop.
constexpr size_t kInflightByteSlack = 32 * 1024;
constexpr size_t kInflightBytesPerHop = 16 * 1024;
/// Smoothed delivery latency tolerated before the latency penalty starts
/// (the network's ordinary base latency is not congestion); each this much
/// smoothed latency past the slack (the decayed EWMA — catches slow hosts
/// whose queue happens to be empty right now) costs one expected hop.
constexpr sim::SimTime kLatencySlack = 50 * sim::kMillisecond;
constexpr sim::SimTime kLatencyPerHop = 100 * sim::kMillisecond;

double CongestionPenaltyHops(const sim::DestinationLoad& load) {
  double hops = 0;
  if (load.in_flight_messages > kInflightMessageSlack) {
    hops += kHopsPerInflightMessage *
            static_cast<double>(load.in_flight_messages -
                                kInflightMessageSlack);
  }
  if (load.in_flight_bytes > kInflightByteSlack) {
    hops += static_cast<double>(load.in_flight_bytes - kInflightByteSlack) /
            static_cast<double>(kInflightBytesPerHop);
  }
  if (load.smoothed_latency > kLatencySlack) {
    hops += static_cast<double>(load.smoothed_latency - kLatencySlack) /
            static_cast<double>(kLatencyPerHop);
  }
  return hops;
}

class CongestionAwarePolicy : public NextHopPolicy {
 public:
  NextHopChoice Choose(const RoutingTable& table, Key target,
                       const LoadProbe& probe) const override {
    NodeInfo classic = table.NextHop(target);
    if (classic.host == table.self().host) {
      // The table says deliver locally (owner, or best-effort on a stale
      // table); a policy never overrides delivery.
      return NextHopChoice{classic, false};
    }
    double classic_penalty = CongestionPenaltyHops(probe(classic.host));
    if (classic_penalty <= 0) {
      // The classic pick is not backed up: route exactly like classic
      // Chord/Bamboo. Detours exist to dodge congestion, not to second-
      // guess the overlay's own distance metric.
      return NextHopChoice{classic, false};
    }
    // Scratch candidate buffer: Choose is on the per-message fast path and
    // must not allocate once warmed. One per thread, like RebuildRoute's.
    thread_local std::vector<NodeInfo> candidates;
    candidates.clear();
    table.AppendProgressCandidates(target, &candidates);
    double classic_score =
        static_cast<double>(
            DistanceBits(table.RouteDistance(classic.id, target))) +
        classic_penalty;
    NodeInfo best;
    double best_score = 0;
    Key best_dist = 0;
    for (const NodeInfo& cand : candidates) {
      if (!cand.valid() || cand.host == classic.host) continue;
      Key dist = table.RouteDistance(cand.id, target);
      double score = static_cast<double>(DistanceBits(dist));
      // Penalties are >= 0, so a candidate whose distance alone already
      // scores classic_score can never be picked: skip its load probe.
      if (score >= classic_score) continue;
      score += CongestionPenaltyHops(probe(cand.host));
      // Deterministic tie-break: smaller remaining distance, then id.
      if (!best.valid() || score < best_score ||
          (score == best_score &&
           (dist < best_dist || (dist == best_dist && cand.id < best.id)))) {
        best = cand;
        best_score = score;
        best_dist = dist;
      }
    }
    if (best.valid() && best_score < classic_score) {
      return NextHopChoice{best, true};
    }
    // All alternatives are at least as bad (or none exist): the greedy
    // fallback guarantee — never worse than classic routing.
    return NextHopChoice{classic, false};
  }

};

}  // namespace

RoutingPolicyKind DefaultRoutingPolicyKind() {
  const char* env = std::getenv("PIERSTACK_ROUTING_POLICY");
  if (env != nullptr && std::string_view(env) == "classic") {
    return RoutingPolicyKind::kClassicChord;
  }
  return RoutingPolicyKind::kCongestionAware;
}

std::unique_ptr<NextHopPolicy> MakeNextHopPolicy(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::kClassicChord:
      return std::make_unique<ClassicGreedyPolicy>();
    case RoutingPolicyKind::kCongestionAware:
      return std::make_unique<CongestionAwarePolicy>();
  }
  return nullptr;
}

}  // namespace pierstack::dht
