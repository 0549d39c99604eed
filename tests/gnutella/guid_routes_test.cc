// GuidRoutes: the flat reverse-path table against a deque + hash-map model.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gnutella/node.h"

namespace pierstack::gnutella {
namespace {

/// The reverse-path table as a FIFO of remembered GUIDs plus a route map:
/// remember, then evict from the front while over capacity.
class GuidRoutesModel {
 public:
  explicit GuidRoutesModel(size_t capacity) : capacity_(capacity) {}

  void Remember(Guid guid, sim::HostId route) {
    routes_[guid] = route;
    fifo_.push_back(guid);
    while (fifo_.size() > capacity_) {
      routes_.erase(fifo_.front());
      fifo_.pop_front();
    }
  }
  bool Contains(Guid guid) const { return routes_.count(guid) > 0; }
  sim::HostId RouteOf(Guid guid) const {
    auto it = routes_.find(guid);
    return it == routes_.end() ? sim::kInvalidHost : it->second;
  }
  size_t size() const { return routes_.size(); }

 private:
  size_t capacity_;
  std::deque<Guid> fifo_;
  std::unordered_map<Guid, sim::HostId> routes_;
};

sim::HostId RandomRoute(Rng* rng) {
  // One route in four is kInvalidHost: a query rooted at this node.
  uint64_t r = rng->NextBelow(12);
  return r < 3 ? sim::kInvalidHost : static_cast<sim::HostId>(r);
}

void ExpectSame(const GuidRoutes& table, const GuidRoutesModel& model,
                const std::vector<Guid>& keys) {
  ASSERT_EQ(table.size(), model.size());
  for (Guid g : keys) {
    ASSERT_EQ(table.Contains(g), model.Contains(g)) << "guid " << g;
    ASSERT_EQ(table.RouteOf(g), model.RouteOf(g)) << "guid " << g;
  }
}

TEST(GuidRoutesTest, MatchesModelAtEveryCapacity) {
  for (size_t capacity = 0; capacity <= 64; ++capacity) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Rng rng(100 + capacity);
    // A pool about twice the capacity, so GUIDs are often re-remembered
    // (while held and after eviction), plus GUID 0 and the largest GUID.
    std::vector<Guid> keys{0, ~Guid{0}};
    for (size_t i = 0; i < 2 * capacity + 6; ++i) keys.push_back(rng.Next());
    GuidRoutes table(capacity);
    GuidRoutesModel model(capacity);
    for (size_t step = 0; step < 3000; ++step) {
      Guid g = keys[rng.NextBelow(keys.size())];
      sim::HostId route = RandomRoute(&rng);
      table.Remember(g, route);
      model.Remember(g, route);
      ExpectSame(table, model, keys);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(GuidRoutesTest, GrowsAndEvictsAtScale) {
  // Distinct GUIDs past several doublings, then steady eviction: every
  // lookup after an eviction walks probe runs that backward shifts closed.
  constexpr size_t kCapacity = 5000;
  Rng rng(7);
  GuidRoutes table(kCapacity);
  GuidRoutesModel model(kCapacity);
  std::vector<Guid> all;
  for (size_t i = 0; i < 4 * kCapacity; ++i) {
    Guid g = rng.Next();
    all.push_back(g);
    sim::HostId route = RandomRoute(&rng);
    table.Remember(g, route);
    model.Remember(g, route);
    ASSERT_EQ(table.size(), std::min(i + 1, kCapacity));
  }
  ExpectSame(table, model, all);
  // Memory stays proportional to the capacity, not to GUIDs ever seen.
  EXPECT_LE(table.bytes(), 40 * kCapacity * 2);
}

TEST(GuidRoutesTest, SequentialGuidsWrapAroundTheTable) {
  // Small consecutive GUIDs collide in runs; a capacity of 11 keeps the
  // table at 16 slots (12 held for a moment before each eviction), so runs
  // wrap past its last slot and are shifted back on every eviction.
  constexpr size_t kCapacity = 11;
  GuidRoutes table(kCapacity);
  GuidRoutesModel model(kCapacity);
  std::vector<Guid> keys;
  for (Guid g = 0; g < 200; ++g) keys.push_back(g);
  for (Guid g = 0; g < 200; ++g) {
    table.Remember(g, static_cast<sim::HostId>(g % 5));
    model.Remember(g, static_cast<sim::HostId>(g % 5));
    ExpectSame(table, model, keys);
  }
  EXPECT_LE(table.bytes(), 16 * 16 + 16 * sizeof(Guid));
}

TEST(GuidRoutesTest, ReRememberedGuidIsForgottenAtItsFirstEviction) {
  GuidRoutes table(3);
  table.Remember(1, 10);
  table.Remember(2, 20);
  table.Remember(1, 11);  // new route; GUID 1 now holds two FIFO places
  EXPECT_EQ(table.RouteOf(1), 11u);
  table.Remember(3, 30);  // evicts the first place of GUID 1
  EXPECT_FALSE(table.Contains(1));
  EXPECT_EQ(table.RouteOf(1), sim::kInvalidHost);
  EXPECT_TRUE(table.Contains(2));
  EXPECT_TRUE(table.Contains(3));
  table.Remember(4, 40);  // evicts GUID 2
  table.Remember(5, 50);  // evicts GUID 1's second place: nothing to forget
  EXPECT_FALSE(table.Contains(2));
  EXPECT_EQ(table.size(), 3u);
}

TEST(GuidRoutesTest, InvalidHostRouteIsStillRemembered) {
  GuidRoutes table(4);
  table.Remember(42, sim::kInvalidHost);
  EXPECT_TRUE(table.Contains(42));
  EXPECT_EQ(table.RouteOf(42), sim::kInvalidHost);
  EXPECT_FALSE(table.Contains(43));
}

TEST(GuidRoutesTest, ZeroCapacityRemembersNothing) {
  GuidRoutes table(0);
  table.Remember(1, 5);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace pierstack::gnutella
