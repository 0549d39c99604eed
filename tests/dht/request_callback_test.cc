// Request callbacks fire exactly once: every DHT request that takes a
// callback — Get, MultiGet, Lookup, an acked Put, and PIER's PublishBatch
// stacked on acked PutBatches — must resolve once and only once, with a
// non-OK status, when the path to the owner loses every message or the
// reply arrives after the deadline. A lost put must not hang its caller.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "dht/builder.h"
#include "pier/node.h"
#include "sim/fault.h"

namespace pierstack::dht {
namespace {

constexpr size_t kRequester = 3;

/// How often one request's callback fired, with what, and how long after
/// the request was issued.
struct Outcome {
  int fired = 0;
  Status status = Status::OK();
  sim::SimTime issued = 0;
  sim::SimTime elapsed = 0;
};

struct Cluster {
  sim::SerialExecutor simulator;
  sim::FaultPlan plan{0xC0FFEE};
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;
  pier::PierMetrics pier_metrics;
  std::unique_ptr<pier::PierNode> pier;

  Cluster() {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 23);
    network->set_fault_plan(&plan);
    dht = std::make_unique<DhtDeployment>(network.get(), 16, DhtOptions{},
                                          4242);
    pier = std::make_unique<pier::PierNode>(requester(), &pier_metrics);
  }

  DhtNode* requester() { return dht->node(kRequester); }

  /// The `n`-th key (in Mix64 order) owned by some node other than the
  /// requester, so every request below has to leave the requester.
  Key RemoteKey(uint64_t n) {
    for (uint64_t i = 0;; ++i) {
      Key k = Mix64(i);
      if (dht->ExpectedOwner(k)->host() == requester()->host()) continue;
      if (n-- == 0) return k;
    }
  }

  /// Records one callback firing into `out`.
  auto Record(Outcome* out) {
    out->issued = simulator.now();
    return [this, out](Status s) {
      ++out->fired;
      out->status = s;
      out->elapsed = simulator.now() - out->issued;
    };
  }

  /// Issues one request of every kind from the requester; returns the
  /// outcomes in the order Get, MultiGet, Lookup, Put, PublishBatch.
  std::vector<Outcome> IssueAll() {
    std::vector<Outcome> out(5);
    DhtNode* r = requester();
    r->Get("ns", RemoteKey(0), [rec = Record(&out[0])](Status s, auto) {
      rec(s);
    });
    r->MultiGet("ns", {RemoteKey(1), RemoteKey(2)},
                [rec = Record(&out[1])](Status s, auto) { rec(s); });
    r->Lookup(RemoteKey(3),
              [rec = Record(&out[2])](Status s, NodeInfo, uint32_t) {
                rec(s);
              });
    r->Put("ns", RemoteKey(4), {1, 2, 3}, 0, Record(&out[3]));
    static const pier::Schema* schema = new pier::Schema(
        "items",
        {{"id", pier::ValueType::kUint64}, {"name", pier::ValueType::kString}},
        0);
    std::vector<pier::Tuple> tuples;
    for (uint64_t id = 1; id <= 8; ++id) {
      tuples.push_back(pier::Tuple(
          {pier::Value(id), pier::Value("item " + std::to_string(id))}));
    }
    pier->PublishBatch(*schema, std::move(tuples), 0, Record(&out[4]));
    return out;
  }
};

const char* const kKinds[] = {"Get", "MultiGet", "Lookup", "Put",
                              "PublishBatch"};

/// Each request resolved exactly once, non-OK, by its deadline: kGetTimeout
/// covers every retry attempt, and PublishBatch's tuples may first sit out
/// one flush interval in their rehash queues.
void ExpectEachFiredOnceNonOk(const std::vector<Outcome>& outcomes) {
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    SCOPED_TRACE(kKinds[i]);
    EXPECT_EQ(o.fired, 1);
    EXPECT_FALSE(o.status.ok());
    sim::SimTime deadline = kGetTimeout;
    if (i == 4) deadline += pier::BatchOptions{}.flush_interval;
    EXPECT_LE(o.elapsed, deadline);
  }
}

TEST(RequestCallbackTest, LostRequestsFireOnceWithTimeout) {
  Cluster c;
  // Every message off the requester is lost in flight: the sender sees a
  // successful send, the owner never hears of the request.
  c.plan.set_message_loss(1.0);
  std::vector<Outcome> outcomes = c.IssueAll();
  c.simulator.Run();  // drains every retry and watchdog
  ExpectEachFiredOnceNonOk(outcomes);
  EXPECT_GT(c.plan.counters().loss_drops, 0u);
}

TEST(RequestCallbackTest, LateRepliesNeverFireASecondTime) {
  Cluster c;
  // Requests reach their owners, but every reply addressed to the
  // requester lands well after the deadline: the timeout resolves each
  // request once, and the late answers are ignored.
  c.plan.AddFailSlow(c.requester()->host(), 0, 60 * sim::kSecond,
                     2 * kGetTimeout);
  std::vector<Outcome> outcomes = c.IssueAll();
  c.simulator.Run();  // the late replies arrive during this run
  ExpectEachFiredOnceNonOk(outcomes);
  EXPECT_GT(c.plan.counters().slow_deliveries, 0u);
}

}  // namespace
}  // namespace pierstack::dht
