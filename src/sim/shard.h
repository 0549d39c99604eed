// ShardedExecutor: a multi-threaded Executor backend partitioning hosts
// across N worker shards, each with its own canonical priority queue and
// per-shard clock.
//
// Determinism comes from conservative barrier epochs. The simulated
// timeline is cut into windows aligned to the `lookahead` L — a lower
// bound on every cross-host delivery delay (the minimum network latency).
// Within a window [kL, (k+1)L) every shard drains its own queue in
// canonical key order; any event it schedules for another shard is at
// least L in the future, i.e. strictly past the window, so it cannot be
// missed: cross-shard events ride per-(src,dst) mutex-guarded mailboxes
// that the coordinator batch-drains at the window barrier, before any
// shard's clock passes the global horizon. Equal-time events across
// shards touch disjoint hosts and may run in any wall-clock order; each
// individual host still observes its events in exactly the canonical
// (time, origin, origin_seq) order SerialExecutor uses, which is what
// makes a fixed seed produce fingerprint-identical counters and answers
// on both backends (asserted by tests/integration/shard_equivalence_test
// and the BM_ShardScale_* gate).
//
// Driver events (owner == kDriverHost: churn timelines, harness timers)
// may touch any host, so they are a barrier of their own: the window is
// cut at the next driver-event time and the coordinator runs a merged
// canonical loop — the due driver events plus everything they spawn inside
// the window — serially, with all workers parked. That reproduces the
// serial backend's ordering around topology mutations exactly.
//
// Threads: the coordinator (the thread calling Run/RunUntil) drains shard
// 0 itself and N-1 worker threads drain the rest, so N shards occupy N
// cores. Each epoch boundary is a barrier; when the machine has a core
// per shard, waiting threads spin briefly before blocking, because an
// epoch holds only a few hundred microseconds of work and a futex
// round-trip per shard per epoch would cost a large share of it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/executor.h"

namespace pierstack::sim {

class ShardedExecutor : public Executor {
 public:
  struct Options {
    uint32_t shards = 2;  ///< Shard count, in [1, 250].
    /// Lower bound on every cross-host scheduled delay (minimum network
    /// latency + any extra). Must be > 0; windows span exactly this much
    /// simulated time, so a too-small bound costs barriers, and a
    /// too-large one trips the drain-time assertion.
    SimTime lookahead = kMillisecond;
  };

  explicit ShardedExecutor(Options opts);
  ~ShardedExecutor() override;
  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  SimTime now() const override;
  EventId ScheduleAt(HostId owner, SimTime t,
                     std::function<void()> fn) override;
  bool Cancel(EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(SimTime t) override;
  /// Driver-side only (like Run/RunUntil): counts are exact between runs.
  size_t pending() const override;
  uint64_t events_executed() const override;
  uint32_t shard_count() const override { return nshards_; }
  uint32_t CurrentSlab() const override;

  /// Which shard executes a host's events.
  uint32_t ShardOf(HostId owner) const { return owner % nshards_; }
  SimTime lookahead() const { return lookahead_; }

 private:
  /// Cross-shard handoff buffer; one per (source shard, destination).
  struct Mailbox {
    std::mutex mu;
    std::vector<detail::CanonicalEvent> events;
  };

  struct Shard {
    uint32_t index = 0;
    detail::CanonicalQueue queue;
    SimTime clock = 0;  ///< Time of the last executed event on this shard.
    HostId current_origin = kDriverHost;
    /// origin_seq counters of this shard's hosts, by host / shard count.
    std::vector<uint64_t> origin_seq;
    uint64_t executed = 0;
    /// outbox[d]: events this shard scheduled for shard d (d != index).
    std::vector<std::unique_ptr<Mailbox>> outbox;
    std::thread thread;  ///< Not started for shard 0 (the coordinator).
  };

  void WorkerLoop(Shard* shard);
  /// Returns once `ready()` holds: polls it up to spin_polls_ times, then
  /// blocks on `cv` under epoch_mu_.
  template <typename Ready>
  void Await(std::condition_variable& cv, Ready ready);
  void RunShardEpoch(Shard* shard, SimTime bound);
  /// Runs one barrier epoch ending at `bound` (inclusive): parallel shard
  /// phase, mailbox drain, then the merged driver loop. Returns events run.
  size_t RunEpoch(SimTime bound);
  /// The main loop shared by Run/RunUntil: epochs while events <= t_limit
  /// remain (and fewer than `limit` ran). Exclusive (driver) context.
  size_t RunCore(SimTime t_limit, size_t limit);
  void DrainMailboxes(SimTime window_end);
  uint64_t NextSeqFor(HostId origin);

  const uint32_t nshards_;
  const SimTime lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Driver-side state: touched only from driver/coordinator context or
  // under driver_inbox_.mu (worker-scheduled driver events).
  detail::CanonicalQueue driver_queue_;
  Mailbox driver_inbox_;
  uint64_t driver_seq_ = 0;
  uint64_t driver_executed_ = 0;
  SimTime horizon_ = 0;       ///< Global clock between epochs.
  SimTime driver_clock_ = 0;  ///< Current event time inside the driver loop.
  bool in_driver_phase_ = false;
  HostId coord_origin_ = kDriverHost;  ///< Scheduling context, driver loop.

  // Epoch barrier (generation-counted; C++17 has no std::barrier). All
  // writes happen under epoch_mu_; the atomics let a spinning waiter poll
  // without it. Workers read epoch_bound_ after they observe the new
  // epoch_gen_ it was written with.
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;   ///< Coordinator -> workers.
  std::condition_variable done_cv_;    ///< Workers -> coordinator.
  std::atomic<uint64_t> epoch_gen_{0};
  SimTime epoch_bound_ = 0;
  std::atomic<uint32_t> workers_done_{0};
  std::atomic<bool> shutdown_{false};
  uint32_t spin_polls_ = 0;  ///< 0 when the shards outnumber the cores.
};

}  // namespace pierstack::sim
