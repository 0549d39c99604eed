// The Executor seam: the narrow interface every protocol layer schedules
// against, decoupling DhtNode/PierNode/Gnutella code from any particular
// event-loop backend.
//
// Two backends implement it, and both order equal-time events by the
// *canonical key* (time, origin host, per-origin seq):
//  * sim::SerialExecutor (below) — single-threaded; the one reference
//    event order every test, bench and sharded run is checked against.
//  * sim::ShardedExecutor (shard.h) — N worker threads, hosts partitioned
//    across per-shard queues, advancing in barrier epochs bounded by the
//    minimum network latency (the lookahead), so a fixed seed yields the
//    same counters and answers as SerialExecutor.
//
// Why the canonical key works across backends: an event's key is assigned
// by its *scheduling context* (the host whose handler scheduled it, or the
// driver), and every host's events execute in strictly increasing key
// order on every backend. By induction each host observes the identical
// sequence of deliveries and timer fires, so it performs the identical
// schedules — same children, same keys — regardless of how events of
// *different* hosts interleave in wall-clock time.
//
// Both backends keep their events in detail::CanonicalQueue: an
// indexed 4-ary min-heap of small (time, origin, origin_seq, slot) keys
// whose closures sit in a pool of generation-stamped slots. Cancelling
// removes the event from the heap at once (timeouts are cancelled far more
// often than they fire), and the generation makes a handle die with its
// event, so cancelling a finished, cancelled or unknown event is a no-op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace pierstack::sim {

/// Simulated time in microseconds since simulation start.
using SimTime = uint64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;

/// Identifies a scheduled event so it can be cancelled (e.g. timeouts).
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Dense id of a host attached to the network (network.h / fault.h).
using HostId = uint32_t;

/// Pseudo-host owning driver-side events: churn timelines, test harness
/// timers — anything scheduled from outside a host's message handler. A
/// sharded backend runs these serialized at epoch barriers, where it may
/// safely touch any host. Sorts after every real host at equal time.
constexpr HostId kDriverHost = UINT32_MAX;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Simulated clock of the calling context: the current event's time from
  /// inside a handler, the global horizon from driver code.
  virtual SimTime now() const = 0;

  /// Schedules `fn` at absolute time `t` (>= now) in `owner`'s execution
  /// domain — `fn` must only touch `owner`'s state (or, for kDriverHost,
  /// runs exclusively and may touch anything). Returns a cancellable id,
  /// or kInvalidEventId when the backend cannot make it cancellable (a
  /// cross-shard handoff; only fire-and-forget deliveries take that path).
  virtual EventId ScheduleAt(HostId owner, SimTime t,
                             std::function<void()> fn) = 0;

  /// Schedules `fn` `delay` after now, same contract as ScheduleAt.
  EventId ScheduleAfter(HostId owner, SimTime delay,
                        std::function<void()> fn) {
    return ScheduleAt(owner, now() + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was
  /// cancelled before, or never existed. Only legal from the owning
  /// shard's context or from driver code.
  virtual bool Cancel(EventId id) = 0;

  /// Driver-side: runs events until none remain or `limit` executed.
  /// Returns the number executed (epoch-granular for sharded backends).
  virtual size_t Run(size_t limit = SIZE_MAX) = 0;

  /// Driver-side: runs all events with time <= t, then advances every
  /// clock to exactly t. Returns the number executed.
  virtual size_t RunUntil(SimTime t) = 0;

  /// RunUntil(now + duration).
  size_t RunFor(SimTime duration) { return RunUntil(now() + duration); }

  /// Number of pending (non-cancelled) events.
  virtual size_t pending() const = 0;

  /// Total events executed since construction.
  virtual uint64_t events_executed() const = 0;

  /// Number of parallel shards (1 for serial backends).
  virtual uint32_t shard_count() const { return 1; }

  /// Slab index for the calling thread, in [0, shard_count()]: the worker
  /// shard index, or shard_count() for driver/coordinator context. Used by
  /// Network to pick shard-local metric slabs.
  virtual uint32_t CurrentSlab() const { return 0; }
};

namespace detail {

/// The canonical ordering key (time, origin, origin_seq). `origin` is the
/// host whose handler scheduled the event; `origin_seq` is monotonic per
/// origin, so no two events of one executor share a key.
struct CanonicalKey {
  SimTime time = 0;
  HostId origin = kDriverHost;
  uint64_t origin_seq = 0;

  friend bool operator<(const CanonicalKey& a, const CanonicalKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.origin_seq < b.origin_seq;
  }
};

/// An event in transit: popped from a queue, or parked in a sharded
/// backend's cross-shard mailbox.
struct CanonicalEvent {
  CanonicalKey key;
  HostId owner = kDriverHost;  ///< Host whose state the handler touches.
  std::function<void()> fn;
};

/// Canonical-order event queue shared by SerialExecutor (one queue) and
/// ShardedExecutor (one per shard plus the driver's): an indexed 4-ary
/// min-heap of 24-byte keys over a pool of closure slots.
///
/// Each closure lives in a pooled slot that records its owner, a
/// generation and its heap position; the heap only ever moves keys, and a
/// pop moves the closure out of its slot exactly once. Push returns a
/// handle (generation << kSlotBits | slot): never 0, below 2^56, and dead
/// as soon as the event runs or is cancelled, because freeing a slot bumps
/// its generation. Cancel therefore removes the event from the heap at
/// once, by position, and rejects handles of events that already ran,
/// were cancelled, or never existed — including a stale handle whose slot
/// a newer event reuses.
class CanonicalQueue {
 public:
  /// Enqueues `fn` under `key`; returns its cancellation handle.
  EventId Push(const CanonicalKey& key, HostId owner,
               std::function<void()>&& fn);
  /// Pops the minimum event into `out` if its time <= bound. Returns false
  /// when the queue is empty or the minimum is later.
  bool PopUpTo(SimTime bound, CanonicalEvent* out);
  /// Key of the minimum event; false when empty.
  bool Peek(CanonicalKey* key) const;
  /// Removes a pending event; false if `handle` is not one.
  bool Cancel(EventId handle);
  size_t pending() const { return heap_.size(); }

 private:
  /// A CanonicalKey plus its slot, packed into 24 bytes (a CanonicalKey
  /// member would pad the entry to 32), ordered by Before.
  struct Entry {
    SimTime time;
    uint64_t origin_seq;
    HostId origin;
    uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    HostId owner = kDriverHost;
    uint32_t gen = 1;
    uint32_t heap_pos = kFree;
  };
  static constexpr uint32_t kFree = UINT32_MAX;
  static constexpr uint32_t kSlotBits = 28;
  static constexpr uint32_t kMaxGen = (1u << kSlotBits) - 1;

  static bool Before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.origin_seq < b.origin_seq;
  }
  void Place(size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  /// Takes the entry at `pos` out of the heap and frees its slot; returns
  /// the slot's closure.
  std::function<void()> RemoveAt(size_t pos);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  ///< Free slot indices, reused LIFO.
};

/// Dense per-origin schedule counters: the next origin_seq of host `index`,
/// growing the vector on demand (host ids are dense).
inline uint64_t NextOriginSeq(std::vector<uint64_t>* seqs, size_t index) {
  if (index >= seqs->size()) seqs->resize(index + 1, 0);
  return (*seqs)[index]++;
}

}  // namespace detail

/// Single-threaded Executor with canonical event ordering — the reference
/// backend sharded runs are fingerprint-checked against, and the serial
/// half of every backend-equivalence test.
class SerialExecutor : public Executor {
 public:
  SerialExecutor() = default;
  SerialExecutor(const SerialExecutor&) = delete;
  SerialExecutor& operator=(const SerialExecutor&) = delete;

  SimTime now() const override { return now_; }
  EventId ScheduleAt(HostId owner, SimTime t,
                     std::function<void()> fn) override;
  bool Cancel(EventId id) override;
  size_t Run(size_t limit = SIZE_MAX) override;
  size_t RunUntil(SimTime t) override;
  size_t pending() const override { return queue_.pending(); }
  uint64_t events_executed() const override { return executed_; }

 private:
  bool RunOne(SimTime bound);

  SimTime now_ = 0;
  HostId current_origin_ = kDriverHost;  ///< Context assigning child keys.
  detail::CanonicalQueue queue_;
  std::vector<uint64_t> origin_seq_;  ///< Indexed by host id.
  uint64_t driver_seq_ = 0;           ///< origin_seq of kDriverHost.
  uint64_t executed_ = 0;
};

/// Test/bench backend selection: returns a ShardedExecutor with
/// PIERSTACK_SHARDS workers when that env var is set above 1 AND the
/// workload has nonzero lookahead, else a SerialExecutor. `lookahead` must
/// be a lower bound on every cross-host delivery delay (the minimum
/// network latency; Network::MinSendLatency()). This is how the CI
/// PIERSTACK_SHARDS=4 leg reruns tier-1 on the sharded backend without
/// each test hard-coding one.
std::unique_ptr<Executor> MakeEnvExecutor(SimTime lookahead);

}  // namespace pierstack::sim
