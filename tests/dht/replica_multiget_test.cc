// Replica-aware MultiGet: with replication > 1 the chained scatter hands
// the remainder to replica holders (one hop peels several owners' key
// ranges), visiting fewer nodes and routing fewer hops than the K-owner
// baseline while returning the identical answer set.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/hashing.h"
#include "dht/builder.h"

namespace pierstack::dht {
namespace {

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<DhtDeployment> dht;

  Cluster(size_t n, size_t replication, bool replica_aware) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 17);
    DhtOptions opts;
    opts.replication = replication;
    opts.replica_aware_multiget = replica_aware;
    dht = std::make_unique<DhtDeployment>(network.get(), n, opts, 909);
  }

  /// Stores one value per key via the DHT (replicated) and returns keys.
  std::vector<Key> PublishKeys(size_t count) {
    std::vector<Key> keys;
    for (uint64_t i = 1; i <= count; ++i) {
      Key k = Mix64(i * 0x9e3779b97f4a7c15ULL);
      keys.push_back(k);
      std::string payload = "value-" + std::to_string(i);
      dht->node(0)->Put("items", k,
                        std::vector<uint8_t>(payload.begin(), payload.end()));
    }
    simulator.Run();
    return keys;
  }

  /// MultiGet from node 1; returns key -> first-byte-checked payloads.
  std::map<Key, size_t> Fetch(const std::vector<Key>& keys, Status* status) {
    std::map<Key, size_t> got;
    dht->node(1)->MultiGet(
        "items", keys,
        [&](Status s, std::vector<DhtNode::MultiGetItem> items) {
          *status = s;
          for (const auto& item : items) {
            got[item.key] = item.batch ? item.batch->size() : 0;
          }
        });
    simulator.Run();
    return got;
  }
};

TEST(ReplicaMultiGetTest, IdenticalAnswersWithFewerVisitsAndHops) {
  const size_t kNodes = 24, kKeys = 64;
  Cluster baseline(kNodes, 2, /*replica_aware=*/false);
  Cluster aware(kNodes, 2, /*replica_aware=*/true);
  auto keys_a = baseline.PublishKeys(kKeys);
  auto keys_b = aware.PublishKeys(kKeys);
  ASSERT_EQ(keys_a, keys_b);

  uint64_t route_msgs_before_a =
      baseline.network->metrics().by_tag["dht.route"].messages;
  uint64_t route_msgs_before_b =
      aware.network->metrics().by_tag["dht.route"].messages;

  Status sa = Status::Internal("unset"), sb = sa;
  auto got_a = baseline.Fetch(keys_a, &sa);
  auto got_b = aware.Fetch(keys_b, &sb);
  ASSERT_TRUE(sa.ok()) << sa.ToString();
  ASSERT_TRUE(sb.ok()) << sb.ToString();

  // Identical result sets: same keys answered with same-size batches.
  EXPECT_EQ(got_a, got_b);
  EXPECT_EQ(got_b.size(), kKeys);
  for (const auto& [k, bytes] : got_b) {
    EXPECT_GT(bytes, 1u) << k;  // non-empty batch image for every key
  }

  // The replica-aware scatter visits fewer nodes (multi_gets counts one
  // routed message per visited node) and routes fewer hops overall.
  EXPECT_LT(aware.dht->metrics().multi_gets,
            baseline.dht->metrics().multi_gets);
  uint64_t hops_a = baseline.network->metrics().by_tag["dht.route"].messages -
                    route_msgs_before_a;
  uint64_t hops_b = aware.network->metrics().by_tag["dht.route"].messages -
                    route_msgs_before_b;
  EXPECT_LT(hops_b, hops_a);
  EXPECT_GT(aware.dht->metrics().replica_peels, 0u);
  EXPECT_GT(aware.dht->metrics().replica_skips, 0u);
  EXPECT_EQ(baseline.dht->metrics().replica_peels, 0u);
  EXPECT_EQ(baseline.dht->metrics().replica_skips, 0u);
}

TEST(ReplicaMultiGetTest, ReplicationOneNeverPeels) {
  Cluster c(16, 1, /*replica_aware=*/true);
  auto keys = c.PublishKeys(32);
  Status s = Status::Internal("unset");
  auto got = c.Fetch(keys, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(got.size(), 32u);
  EXPECT_EQ(c.dht->metrics().replica_peels, 0u);
  EXPECT_EQ(c.dht->metrics().replica_skips, 0u);
}

TEST(ReplicaMultiGetTest, MissingKeysStillAnsweredEmptyByOwners) {
  Cluster c(16, 3, /*replica_aware=*/true);
  c.PublishKeys(16);
  // Keys never stored anywhere: a replica holding no data must NOT claim
  // them (an empty replica store could be replication lag), so each must
  // flow on to its owner and come back answered empty.
  std::vector<Key> missing;
  for (uint64_t i = 1; i <= 40; ++i) {
    missing.push_back(Mix64(i * 0xdeadbeefULL));
  }
  Status s = Status::Internal("unset");
  std::map<Key, size_t> got = c.Fetch(missing, &s);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got.size(), missing.size());
  for (const auto& [k, bytes] : got) {
    EXPECT_EQ(bytes, 1u) << k;  // the canonical empty batch image
  }
}

TEST(ReplicaMultiGetTest, EmptyReplicaNeverClaimsAKeyTheOwnerHolds) {
  // Replica copies travel one extra hop after the owner stores; an arc
  // handoff meeting a not-yet-copied key must pass it on to the owner
  // rather than answer empty. Modeled deterministically: the values exist
  // ONLY at their owners (written directly into the owner stores, as if
  // every replica copy were still in flight).
  Cluster c(24, 2, /*replica_aware=*/true);
  std::vector<Key> keys;
  for (uint64_t i = 1; i <= 48; ++i) {
    Key k = Mix64(i * 0x9e3779b97f4a7c15ULL);
    keys.push_back(k);
    std::string payload = "owner-only-" + std::to_string(i);
    c.dht->ExpectedOwner(k)->store().Put(
        "items", k, std::vector<uint8_t>(payload.begin(), payload.end()));
  }
  Status s = Status::Internal("unset");
  auto got = c.Fetch(keys, &s);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got.size(), keys.size());
  for (const auto& [k, bytes] : got) {
    EXPECT_GT(bytes, 1u) << k;  // every owner-held value came back
  }
}

TEST(ReplicaMultiGetTest, HigherReplicationPeelsMore) {
  const size_t kNodes = 24, kKeys = 96;
  Cluster r2(kNodes, 2, true), r4(kNodes, 4, true);
  auto keys_a = r2.PublishKeys(kKeys);
  auto keys_b = r4.PublishKeys(kKeys);
  ASSERT_EQ(keys_a, keys_b);
  Status sa = Status::Internal("unset"), sb = sa;
  auto got_a = r2.Fetch(keys_a, &sa);
  auto got_b = r4.Fetch(keys_b, &sb);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(got_a, got_b);
  // A wider replica set lets each handoff cover more owners: fewer visits.
  EXPECT_LT(r4.dht->metrics().multi_gets, r2.dht->metrics().multi_gets);
}

}  // namespace
}  // namespace pierstack::dht
