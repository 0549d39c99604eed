// Executor seam backends: SerialExecutor's canonical (time, origin,
// origin_seq) ordering and its Run/RunUntil/RunFor/Cancel contracts,
// ShardedExecutor's barrier-epoch equivalence to it, and MakeEnvExecutor's
// env-driven backend selection.
#include "sim/executor.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/shard.h"

namespace pierstack::sim {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TEST(SerialExecutorTest, DriverScheduledEqualTimeRunsFifo) {
  SerialExecutor ex;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ex.ScheduleAt(static_cast<HostId>(3 - i), 10 * kMillisecond,
                  [&order, i] { order.push_back(i); });
  }
  ex.Run();
  // All four share the driver origin, so the per-origin seq (= schedule
  // order) breaks the tie — not the owner host id.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ex.now(), 10 * kMillisecond);
  EXPECT_EQ(ex.events_executed(), 4u);
}

TEST(SerialExecutorTest, EqualTimeChildrenOrderByOrigin) {
  SerialExecutor ex;
  std::vector<HostId> order;
  // Host 2's handler runs before host 1's (driver FIFO at t=10ms), but
  // their equal-time children on host 0 must order by *origin*: 1 < 2.
  for (HostId h : {HostId{2}, HostId{1}}) {
    ex.ScheduleAt(h, 10 * kMillisecond, [&ex, &order, h] {
      ex.ScheduleAfter(0, 10 * kMillisecond, [&order, h] {
        order.push_back(h);
      });
    });
  }
  ex.Run();
  EXPECT_EQ(order, (std::vector<HostId>{1, 2}));
}

TEST(SerialExecutorTest, DriverOriginSortsAfterHostsAtEqualTime) {
  SerialExecutor ex;
  std::vector<std::string> order;
  // Driver-origin event at 10ms, scheduled first.
  ex.ScheduleAt(kDriverHost, 10 * kMillisecond,
                [&order] { order.push_back("driver"); });
  // Host 3 at 5ms schedules a child for the same 10ms instant.
  ex.ScheduleAt(3, 5 * kMillisecond, [&ex, &order] {
    ex.ScheduleAfter(3, 5 * kMillisecond,
                     [&order] { order.push_back("host"); });
  });
  ex.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"host", "driver"}));
}

TEST(SerialExecutorTest, CancelIsOneShotAndSkipsExecution) {
  SerialExecutor ex;
  bool ran = false;
  EventId id = ex.ScheduleAt(1, kMillisecond, [&ran] { ran = true; });
  EXPECT_EQ(ex.pending(), 1u);
  EXPECT_TRUE(ex.Cancel(id));
  EXPECT_FALSE(ex.Cancel(id));
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_EQ(ex.Run(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(ex.Cancel(kInvalidEventId));
}

TEST(SerialExecutorTest, RunUntilExecutesDueAndSettlesClock) {
  SerialExecutor ex;
  int ran = 0;
  ex.ScheduleAt(0, 10 * kMillisecond, [&ran] { ++ran; });
  ex.ScheduleAt(0, 100 * kMillisecond, [&ran] { ++ran; });
  EXPECT_EQ(ex.RunUntil(50 * kMillisecond), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(ex.now(), 50 * kMillisecond);
  EXPECT_EQ(ex.pending(), 1u);
  ex.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ex.now(), 100 * kMillisecond);
}

TEST(SerialExecutorTest, RunsEventsInTimeOrder) {
  SerialExecutor ex;
  std::vector<int> order;
  ex.ScheduleAt(kDriverHost, 30, [&] { order.push_back(3); });
  ex.ScheduleAt(kDriverHost, 10, [&] { order.push_back(1); });
  ex.ScheduleAt(kDriverHost, 20, [&] { order.push_back(2); });
  ex.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), 30u);
}

TEST(SerialExecutorTest, ScheduleAfterUsesCurrentTime) {
  SerialExecutor ex;
  SimTime seen = 0;
  ex.ScheduleAt(kDriverHost, 100, [&] {
    ex.ScheduleAfter(kDriverHost, 50, [&] { seen = ex.now(); });
  });
  ex.Run();
  EXPECT_EQ(seen, 150u);
}

TEST(SerialExecutorTest, EventsCanScheduleMoreEvents) {
  SerialExecutor ex;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) ex.ScheduleAfter(kDriverHost, 1, chain);
  };
  ex.ScheduleAt(kDriverHost, 0, chain);
  ex.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(ex.now(), 9u);
}

TEST(SerialExecutorTest, RunUntilIncludesBoundaryEvents) {
  SerialExecutor ex;
  bool ran = false;
  ex.ScheduleAt(kDriverHost, 25, [&] { ran = true; });
  ex.RunUntil(25);
  EXPECT_TRUE(ran);
}

TEST(SerialExecutorTest, RunForIsRelative) {
  SerialExecutor ex;
  ex.ScheduleAt(kDriverHost, 5, [] {});
  ex.RunUntil(10);
  int count = 0;
  ex.ScheduleAfter(kDriverHost, 5, [&] { ++count; });
  ex.ScheduleAfter(kDriverHost, 15, [&] { ++count; });
  ex.RunFor(10);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(ex.now(), 20u);
}

TEST(SerialExecutorTest, RunWithLimitStopsEarly) {
  SerialExecutor ex;
  int count = 0;
  for (SimTime t = 0; t < 10; ++t) {
    ex.ScheduleAt(kDriverHost, t, [&] { ++count; });
  }
  EXPECT_EQ(ex.Run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(ex.pending(), 7u);
}

TEST(SerialExecutorTest, ExecutedCounterAndPending) {
  SerialExecutor ex;
  ex.ScheduleAt(kDriverHost, 1, [] {});
  ex.ScheduleAt(kDriverHost, 2, [] {});
  EventId id = ex.ScheduleAt(kDriverHost, 3, [] {});
  ex.Cancel(id);
  EXPECT_EQ(ex.pending(), 2u);
  ex.Run();
  EXPECT_EQ(ex.events_executed(), 2u);
}

TEST(SerialExecutorTest, CancelledEventDoesNotAdvanceClock) {
  SerialExecutor ex;
  EventId id = ex.ScheduleAt(kDriverHost, 50, [] {});
  ex.ScheduleAt(kDriverHost, 10, [] {});
  ex.Cancel(id);
  ex.Run();
  EXPECT_EQ(ex.now(), 10u);
}

// A deterministic multi-host token workload: every host's digest folds in
// the times of its fires, and hops carry tokens across hosts (and thus
// shards) with delays >= the lookahead. Any backend honoring the canonical
// per-host event order must produce identical digests, fire counts, and
// mid-run driver snapshots.
struct TokenWorkload {
  static constexpr SimTime kLookahead = kMillisecond;
  static constexpr size_t kHosts = 12;
  static constexpr SimTime kEnd = 200 * kMillisecond;

  explicit TokenWorkload(Executor* e) : ex(e) {}

  Executor* ex;
  std::array<uint64_t, kHosts> digest{};
  std::array<uint64_t, kHosts> fires{};
  std::vector<std::pair<SimTime, uint64_t>> snapshots;

  void Fire(HostId h) {
    SimTime t = ex->now();
    digest[h] = Mix64(digest[h] ^ (t * 1315423911ull + h));
    ++fires[h];
    if (t >= kEnd) return;
    HostId next = static_cast<HostId>(Mix64(digest[h]) % kHosts);
    SimTime delay = kLookahead * (1 + Mix64(digest[h] ^ t) % 3);
    ex->ScheduleAfter(next, delay, [this, next] { Fire(next); });
  }

  void Run() {
    for (HostId h = 0; h < kHosts; ++h) {
      // Deliberately off the lookahead grid.
      ex->ScheduleAt(h, kLookahead + 137 * h, [this, h] { Fire(h); });
    }
    for (int i = 1; i <= 3; ++i) {
      ex->ScheduleAt(kDriverHost, i * 50 * kMillisecond, [this] {
        uint64_t acc = 0;
        for (size_t h = 0; h < kHosts; ++h) acc = Mix64(acc ^ digest[h]);
        snapshots.emplace_back(ex->now(), acc);
      });
    }
    ex->Run();
  }
};

TEST(ShardedExecutorTest, TokenWorkloadMatchesSerialBackend) {
  SerialExecutor serial;
  TokenWorkload reference(&serial);
  reference.Run();
  ASSERT_GT(serial.events_executed(), 100u);  // not vacuous

  for (uint32_t shards : {2u, 4u}) {
    ShardedExecutor ex({shards, TokenWorkload::kLookahead});
    TokenWorkload w(&ex);
    w.Run();
    EXPECT_EQ(w.digest, reference.digest) << shards << " shards";
    EXPECT_EQ(w.fires, reference.fires) << shards << " shards";
    EXPECT_EQ(w.snapshots, reference.snapshots) << shards << " shards";
    EXPECT_EQ(ex.events_executed(), serial.events_executed());
    EXPECT_EQ(ex.now(), serial.now());
  }
}

TEST(ShardedExecutorTest, EqualTimeChildrenOrderByOriginAcrossShards) {
  auto run = [](Executor& ex) {
    auto order = std::make_shared<std::vector<HostId>>();
    // Hosts 2 (shard 0) and 1 (shard 1) fire concurrently at 10ms; both
    // schedule a child on host 0 (shard 0) for the same later instant —
    // host 1's travels through the cross-shard mailbox, host 2's is a
    // local push. Canonical order: origin 1 before origin 2.
    for (HostId h : {HostId{2}, HostId{1}}) {
      ex.ScheduleAt(h, 10 * kMillisecond, [&ex, order, h] {
        ex.ScheduleAfter(0, 10 * kMillisecond, [order, h] {
          order->push_back(h);
        });
      });
    }
    ex.Run();
    return *order;
  };
  SerialExecutor serial;
  std::vector<HostId> want = run(serial);
  ASSERT_EQ(want, (std::vector<HostId>{1, 2}));
  ShardedExecutor sharded({2, kMillisecond});
  EXPECT_EQ(run(sharded), want);
}

TEST(ShardedExecutorTest, DriverContextCancelReachesAnyShard) {
  ShardedExecutor ex({2, kMillisecond});
  bool ran = false;
  EventId a = ex.ScheduleAt(3, 5 * kMillisecond, [&ran] { ran = true; });
  EventId b = ex.ScheduleAt(kDriverHost, 5 * kMillisecond,
                            [&ran] { ran = true; });
  EXPECT_EQ(ex.pending(), 2u);
  EXPECT_TRUE(ex.Cancel(a));
  EXPECT_TRUE(ex.Cancel(b));
  EXPECT_FALSE(ex.Cancel(a));
  EXPECT_EQ(ex.pending(), 0u);
  EXPECT_EQ(ex.Run(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(ex.events_executed(), 0u);
}

TEST(ShardedExecutorTest, OwnerShardCancelsItsOwnTimer) {
  ShardedExecutor ex({2, kMillisecond});
  bool fired = false;
  // The timeout pattern: a host arms a timer for itself, then cancels it
  // from a later event of its own — all on the owning shard.
  auto id = std::make_shared<EventId>(kInvalidEventId);
  ex.ScheduleAt(1, kMillisecond, [&ex, id, &fired] {
    *id = ex.ScheduleAfter(1, 10 * kMillisecond, [&fired] { fired = true; });
  });
  ex.ScheduleAt(1, 2 * kMillisecond,
                [&ex, id] { EXPECT_TRUE(ex.Cancel(*id)); });
  ex.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(ex.events_executed(), 2u);
}

TEST(ShardedExecutorTest, RunUntilAdvancesEveryClock) {
  ShardedExecutor ex({2, kMillisecond});
  int ran = 0;
  ex.ScheduleAt(0, kMillisecond, [&ran] { ++ran; });
  ex.ScheduleAt(1, 100 * kMillisecond, [&ran] { ++ran; });
  EXPECT_EQ(ex.RunUntil(50 * kMillisecond), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(ex.now(), 50 * kMillisecond);
  EXPECT_EQ(ex.pending(), 1u);
  ex.Run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ex.now(), 100 * kMillisecond);
}

TEST(ShardedExecutorTest, ReportsShardCountAndDriverSlab) {
  ShardedExecutor ex({3, kMillisecond});
  EXPECT_EQ(ex.shard_count(), 3u);
  // Driver context gets the extra slab past the workers'.
  EXPECT_EQ(ex.CurrentSlab(), 3u);
  for (HostId h = 0; h < 6; ++h) EXPECT_LT(ex.ShardOf(h), 3u);
}

// The Cancel contract on both backends: false, and no change to pending(),
// for anything but a pending event.
std::vector<std::pair<std::string, std::unique_ptr<Executor>>> Backends() {
  std::vector<std::pair<std::string, std::unique_ptr<Executor>>> out;
  out.emplace_back("serial", std::make_unique<SerialExecutor>());
  out.emplace_back("sharded", std::make_unique<ShardedExecutor>(
                                  ShardedExecutor::Options{2, kMillisecond}));
  return out;
}

TEST(CancelContractTest, CancelAfterTheEventRanFails) {
  for (auto& [name, ex] : Backends()) {
    SCOPED_TRACE(name);
    int ran = 0;
    EventId id = ex->ScheduleAt(1, 10 * kMillisecond, [&ran] { ++ran; });
    ex->ScheduleAt(1, 20 * kMillisecond, [&ran] { ++ran; });
    EXPECT_EQ(ex->RunUntil(15 * kMillisecond), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(ex->Cancel(id));
    EXPECT_EQ(ex->pending(), 1u);
    EXPECT_EQ(ex->Run(), 1u);
    EXPECT_FALSE(ex->Cancel(id));
    EXPECT_EQ(ex->pending(), 0u);
  }
}

TEST(CancelContractTest, CancelOfUnknownIdFails) {
  for (auto& [name, ex] : Backends()) {
    SCOPED_TRACE(name);
    EventId done = ex->ScheduleAt(1, 10 * kMillisecond, [] {});
    EventId live = ex->ScheduleAt(1, 20 * kMillisecond, [] {});
    EXPECT_EQ(ex->RunUntil(15 * kMillisecond), 1u);
    // Ids never handed out: constants, and every single-bit step from the
    // ids of a finished and a pending event (which covers a freed slot's
    // next generation under any handle layout).
    std::vector<EventId> bogus = {kInvalidEventId, EventId{12345},
                                  ~EventId{0}, EventId{0xFE}, EventId{0xFF}};
    for (EventId base : {done, live}) {
      for (int bit = 0; bit < 64; ++bit) {
        bogus.push_back(base + (EventId{1} << bit));
        bogus.push_back(base - (EventId{1} << bit));
      }
    }
    for (EventId id : bogus) {
      if (id == live) continue;
      EXPECT_FALSE(ex->Cancel(id)) << id;
      EXPECT_EQ(ex->pending(), 1u);
    }
    EXPECT_EQ(ex->Run(), 1u);
    EXPECT_EQ(ex->pending(), 0u);
  }
}

TEST(CancelContractTest, DoubleCancelFails) {
  for (auto& [name, ex] : Backends()) {
    SCOPED_TRACE(name);
    bool ran = false;
    EventId a = ex->ScheduleAt(1, 10 * kMillisecond, [&ran] { ran = true; });
    ex->ScheduleAt(kDriverHost, 10 * kMillisecond, [] {});
    EXPECT_EQ(ex->pending(), 2u);
    EXPECT_TRUE(ex->Cancel(a));
    EXPECT_EQ(ex->pending(), 1u);
    EXPECT_FALSE(ex->Cancel(a));
    EXPECT_EQ(ex->pending(), 1u);
    EXPECT_EQ(ex->Run(), 1u);
    EXPECT_FALSE(ran);
    EXPECT_EQ(ex->pending(), 0u);
  }
}

TEST(CancelContractTest, StaleHandleSparesTheEventReusingItsSlot) {
  for (auto& [name, ex] : Backends()) {
    SCOPED_TRACE(name);
    // A cancelled handle, then a handle of an event that ran: each freed
    // slot is reused by the next push on the same queue.
    EventId cancelled = ex->ScheduleAt(1, 10 * kMillisecond, [] {});
    ASSERT_TRUE(ex->Cancel(cancelled));
    int newer_ran = 0;
    EventId newer =
        ex->ScheduleAt(1, 10 * kMillisecond, [&newer_ran] { ++newer_ran; });
    EXPECT_NE(newer, cancelled);
    EXPECT_FALSE(ex->Cancel(cancelled));
    EXPECT_EQ(ex->pending(), 1u);
    EXPECT_EQ(ex->RunUntil(10 * kMillisecond), 1u);
    EXPECT_EQ(newer_ran, 1);

    EventId newest =
        ex->ScheduleAt(1, 20 * kMillisecond, [&newer_ran] { ++newer_ran; });
    EXPECT_FALSE(ex->Cancel(newer));
    EXPECT_FALSE(ex->Cancel(cancelled));
    EXPECT_EQ(ex->pending(), 1u);
    EXPECT_EQ(ex->Run(), 1u);
    EXPECT_EQ(newer_ran, 2);
    EXPECT_FALSE(ex->Cancel(newest));
    EXPECT_EQ(ex->pending(), 0u);
  }
}

// Random interleavings of Push, Cancel and PopUpTo against a reference
// std::map ordered by the canonical key: same pop order, same pending()
// after every operation, and no cancelled closure ever runs.
TEST(CanonicalQueueTest, MatchesReferenceOrderedSet) {
  constexpr int kOpsPerSeed = 30000;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    detail::CanonicalQueue q;
    // Pending keys, each mapped to its index in `pushed`.
    std::map<detail::CanonicalKey, size_t> ref;
    // Every pushed event, by index: its key, handle and fate.
    struct Pushed {
      detail::CanonicalKey key;
      EventId handle;
      bool live;
      bool cancelled;
      bool ran;
    };
    std::vector<Pushed> pushed;
    std::map<HostId, uint64_t> next_seq;
    uint64_t x = seed;
    auto rand = [&x](uint64_t n) { return (x = Mix64(x)) % n; };
    SimTime floor = 0;  // times are pushed at or after the last pop

    for (int op = 0; op < kOpsPerSeed; ++op) {
      uint64_t dice = rand(10);
      if (dice < 5) {
        // Few times and origins, so ties on time and origin are common.
        HostId origin = rand(5) == 0 ? kDriverHost
                                     : static_cast<HostId>(rand(6));
        detail::CanonicalKey key{floor + rand(40), origin,
                                 next_seq[origin]++};
        size_t i = pushed.size();
        EventId h = q.Push(key, static_cast<HostId>(rand(8)),
                           [&pushed, i] { pushed[i].ran = true; });
        ASSERT_NE(h, kInvalidEventId);
        ASSERT_LT(h, EventId{1} << 56);
        pushed.push_back({key, h, true, false, false});
        ref.emplace(key, i);
      } else if (dice < 7 && !pushed.empty()) {
        // Cancel any handle ever issued: live ones succeed, the rest
        // (ran, already cancelled) must fail.
        Pushed& p = pushed[rand(pushed.size())];
        ASSERT_EQ(q.Cancel(p.handle), p.live);
        if (p.live) {
          p.live = false;
          p.cancelled = true;
          ref.erase(p.key);
        }
      } else {
        SimTime bound = floor + rand(30);
        detail::CanonicalEvent ev;
        bool popped = q.PopUpTo(bound, &ev);
        bool want = !ref.empty() && ref.begin()->first.time <= bound;
        ASSERT_EQ(popped, want);
        if (popped) {
          auto [k, i] = *ref.begin();
          ASSERT_EQ(ev.key.time, k.time);
          ASSERT_EQ(ev.key.origin, k.origin);
          ASSERT_EQ(ev.key.origin_seq, k.origin_seq);
          ref.erase(ref.begin());
          pushed[i].live = false;
          ev.fn();
          ASSERT_TRUE(pushed[i].ran);
          floor = ev.key.time;
        }
      }
      ASSERT_EQ(q.pending(), ref.size());
      detail::CanonicalKey top;
      ASSERT_EQ(q.Peek(&top), !ref.empty());
      if (!ref.empty()) {
        const detail::CanonicalKey& k = ref.begin()->first;
        ASSERT_EQ(top.time, k.time);
        ASSERT_EQ(top.origin, k.origin);
        ASSERT_EQ(top.origin_seq, k.origin_seq);
      }
    }
    // Drain; then no cancelled closure has run, and every other one has.
    detail::CanonicalEvent ev;
    while (q.PopUpTo(UINT64_MAX, &ev)) ev.fn();
    EXPECT_EQ(q.pending(), 0u);
    size_t cancels = 0;
    for (const Pushed& p : pushed) {
      EXPECT_NE(p.cancelled, p.ran);
      cancels += p.cancelled;
    }
    EXPECT_GT(cancels, 1000u);  // not vacuous
  }
}

TEST(MakeEnvExecutorTest, SelectsBackendFromEnv) {
  const char* saved = std::getenv("PIERSTACK_SHARDS");
  std::string saved_value = saved ? saved : "";

  unsetenv("PIERSTACK_SHARDS");
  EXPECT_EQ(MakeEnvExecutor(kMillisecond)->shard_count(), 1u);
  setenv("PIERSTACK_SHARDS", "4", 1);
  EXPECT_EQ(MakeEnvExecutor(kMillisecond)->shard_count(), 4u);
  // No positive lookahead, no window bound: serial fallback.
  EXPECT_EQ(MakeEnvExecutor(0)->shard_count(), 1u);
  setenv("PIERSTACK_SHARDS", "1", 1);
  EXPECT_EQ(MakeEnvExecutor(kMillisecond)->shard_count(), 1u);

  if (saved) {
    setenv("PIERSTACK_SHARDS", saved_value.c_str(), 1);
  } else {
    unsetenv("PIERSTACK_SHARDS");
  }
}

}  // namespace
}  // namespace pierstack::sim
