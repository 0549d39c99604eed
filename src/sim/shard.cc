#include "sim/shard.h"

#include <cassert>

namespace pierstack::sim {

namespace {

// Shard identity of the calling thread: which executor's shard it is
// draining, if any — a worker's for its whole life, the coordinator's
// while it drains shard 0. Keyed by executor address; workers die with
// their executor, so a stale pointer can never be observed by a live
// executor's calls.
thread_local const void* tls_exec = nullptr;
thread_local uint32_t tls_shard_idx = 0;

// An EventId is a queue handle (below 2^56) tagged with the queue's slot:
// a shard index, or kDriverSlot for the driver queue.
constexpr uint32_t kDriverSlot = 0xFE;
constexpr uint32_t kSlotBits = 8;
constexpr uint32_t kSlotMask = 0xFF;

// Barrier polls before a waiting thread blocks: roughly 0.1-1 ms,
// depending on the CPU's pause latency.
constexpr uint32_t kSpinPolls = 1u << 14;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

EventId MakeId(uint32_t slot, EventId handle) {
  return (handle << kSlotBits) | slot;
}

}  // namespace

ShardedExecutor::ShardedExecutor(Options opts)
    : nshards_(opts.shards), lookahead_(opts.lookahead) {
  assert(nshards_ >= 1 && nshards_ < kDriverSlot);
  assert(lookahead_ > 0);
  shards_.reserve(nshards_);
  for (uint32_t i = 0; i < nshards_; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->outbox.reserve(nshards_);
    for (uint32_t d = 0; d < nshards_; ++d) {
      shard->outbox.push_back(std::make_unique<Mailbox>());
    }
    shards_.push_back(std::move(shard));
  }
  if (std::thread::hardware_concurrency() >= nshards_) {
    spin_polls_ = kSpinPolls;
  }
  // Shard 0 runs on the coordinator's thread (RunEpoch).
  for (uint32_t i = 1; i < nshards_; ++i) {
    shards_[i]->thread = std::thread(&ShardedExecutor::WorkerLoop, this,
                                     shards_[i].get());
  }
}

ShardedExecutor::~ShardedExecutor() {
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  epoch_cv_.notify_all();
  for (uint32_t i = 1; i < nshards_; ++i) shards_[i]->thread.join();
}

template <typename Ready>
void ShardedExecutor::Await(std::condition_variable& cv, Ready ready) {
  for (uint32_t i = 0; i < spin_polls_; ++i) {
    if (ready()) return;
    CpuRelax();
  }
  std::unique_lock<std::mutex> lock(epoch_mu_);
  cv.wait(lock, ready);
}

SimTime ShardedExecutor::now() const {
  if (tls_exec == this) return shards_[tls_shard_idx]->clock;
  if (in_driver_phase_) return driver_clock_;
  return horizon_;
}

uint32_t ShardedExecutor::CurrentSlab() const {
  return tls_exec == this ? tls_shard_idx : nshards_;
}

uint64_t ShardedExecutor::NextSeqFor(HostId origin) {
  if (origin == kDriverHost) return driver_seq_++;
  return detail::NextOriginSeq(&shards_[ShardOf(origin)]->origin_seq,
                               origin / nshards_);
}

EventId ShardedExecutor::ScheduleAt(HostId owner, SimTime t,
                                    std::function<void()> fn) {
  detail::CanonicalKey key;
  key.time = t;
  if (tls_exec == this) {
    // Worker context: keys come from the executing host on this shard.
    Shard* s = shards_[tls_shard_idx].get();
    assert(t >= s->clock);
    key.origin = s->current_origin;
    key.origin_seq = NextSeqFor(key.origin);
    if (owner == kDriverHost) {
      std::lock_guard<std::mutex> lock(driver_inbox_.mu);
      driver_inbox_.events.push_back({key, owner, std::move(fn)});
      return kInvalidEventId;
    }
    uint32_t dst = ShardOf(owner);
    if (dst == s->index) {
      return MakeId(s->index, s->queue.Push(key, owner, std::move(fn)));
    }
    // Cross-shard handoff: parked in the mailbox until the barrier. Not
    // cancellable — only fire-and-forget message deliveries take this
    // path (timers and timeouts are always owner-scheduled, same shard).
    Mailbox* mb = s->outbox[dst].get();
    std::lock_guard<std::mutex> lock(mb->mu);
    mb->events.push_back({key, owner, std::move(fn)});
    return kInvalidEventId;
  }
  // Driver context (between runs, or the coordinator's merged driver
  // loop): exclusive access to every queue, push directly.
  assert(t >= now());
  key.origin = in_driver_phase_ ? coord_origin_ : kDriverHost;
  key.origin_seq = NextSeqFor(key.origin);
  if (owner == kDriverHost) {
    return MakeId(kDriverSlot, driver_queue_.Push(key, owner, std::move(fn)));
  }
  Shard* s = shards_[ShardOf(owner)].get();
  return MakeId(s->index, s->queue.Push(key, owner, std::move(fn)));
}

bool ShardedExecutor::Cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
  EventId handle = id >> kSlotBits;
  if (slot == kDriverSlot) {
    assert(tls_exec != this);  // driver events cancel from driver context
    return driver_queue_.Cancel(handle);
  }
  if (slot >= nshards_) return false;
  // Only the owning shard's thread, or exclusive driver context, may
  // touch that shard's queue.
  assert(tls_exec != this || tls_shard_idx == slot);
  return shards_[slot]->queue.Cancel(handle);
}

void ShardedExecutor::WorkerLoop(Shard* shard) {
  tls_exec = this;
  tls_shard_idx = shard->index;
  uint64_t seen_gen = 0;
  for (;;) {
    Await(epoch_cv_, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             epoch_gen_.load(std::memory_order_acquire) != seen_gen;
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen_gen = epoch_gen_.load(std::memory_order_acquire);
    RunShardEpoch(shard, epoch_bound_);
    bool last;
    {
      std::lock_guard<std::mutex> lock(epoch_mu_);
      last = workers_done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
             nshards_ - 1;
    }
    if (last) done_cv_.notify_one();
  }
}

void ShardedExecutor::RunShardEpoch(Shard* shard, SimTime bound) {
  detail::CanonicalEvent ev;
  while (shard->queue.PopUpTo(bound, &ev)) {
    shard->clock = ev.key.time;
    shard->current_origin = ev.owner;
    ++shard->executed;
    ev.fn();
    ev.fn = nullptr;  // release captured state before the next pop
  }
  shard->current_origin = kDriverHost;
}

void ShardedExecutor::DrainMailboxes(SimTime window_end) {
  (void)window_end;
  for (auto& src : shards_) {
    for (uint32_t d = 0; d < nshards_; ++d) {
      Mailbox* mb = src->outbox[d].get();
      std::lock_guard<std::mutex> lock(mb->mu);
      for (auto& ev : mb->events) {
        // The conservative-lookahead contract: nothing sent inside a
        // window may land inside it. A failure here means the configured
        // lookahead exceeds some cross-host delay.
        assert(ev.key.time > window_end);
        shards_[d]->queue.Push(ev.key, ev.owner, std::move(ev.fn));
      }
      mb->events.clear();
    }
  }
  std::lock_guard<std::mutex> lock(driver_inbox_.mu);
  for (auto& ev : driver_inbox_.events) {
    driver_queue_.Push(ev.key, ev.owner, std::move(ev.fn));
  }
  driver_inbox_.events.clear();
}

size_t ShardedExecutor::RunEpoch(SimTime bound) {
  uint64_t before = driver_executed_;
  for (const auto& shard : shards_) before += shard->executed;

  // Parallel phase: every shard drains its queue up to the bound, shard 0
  // on this thread.
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_bound_ = bound;
    workers_done_.store(0, std::memory_order_relaxed);
    epoch_gen_.fetch_add(1, std::memory_order_release);
  }
  epoch_cv_.notify_all();
  const void* saved_exec = tls_exec;
  uint32_t saved_idx = tls_shard_idx;
  tls_exec = this;
  tls_shard_idx = 0;
  RunShardEpoch(shards_[0].get(), bound);
  tls_exec = saved_exec;
  tls_shard_idx = saved_idx;
  Await(done_cv_, [&] {
    return workers_done_.load(std::memory_order_acquire) == nshards_ - 1;
  });
  DrainMailboxes(bound);

  // Merged driver loop: any driver events due in this window run now, with
  // the workers parked — plus whatever they spawn back inside the window
  // (zero-delay joins, crash cleanup), in global canonical order, exactly
  // as SerialExecutor interleaves them.
  in_driver_phase_ = true;
  for (;;) {
    detail::CanonicalQueue* best = nullptr;
    detail::CanonicalKey best_key;
    auto consider = [&](detail::CanonicalQueue* q) {
      detail::CanonicalKey k;
      if (!q->Peek(&k) || k.time > bound) return;
      if (best == nullptr || k < best_key) {
        best = q;
        best_key = k;
      }
    };
    consider(&driver_queue_);
    for (auto& shard : shards_) consider(&shard->queue);
    if (best == nullptr) break;
    detail::CanonicalEvent ev;
    best->PopUpTo(bound, &ev);
    driver_clock_ = ev.key.time;
    coord_origin_ = ev.owner;
    ++driver_executed_;
    ev.fn();
  }
  coord_origin_ = kDriverHost;
  in_driver_phase_ = false;

  uint64_t after = driver_executed_;
  for (const auto& shard : shards_) after += shard->executed;
  return static_cast<size_t>(after - before);
}

size_t ShardedExecutor::RunCore(SimTime t_limit, size_t limit) {
  size_t total = 0;
  while (total < limit) {
    // Between epochs every mailbox is drained, so the queues alone hold
    // the frontier.
    bool any = false;
    SimTime e_min = 0;
    auto update = [&](const detail::CanonicalQueue& q) {
      detail::CanonicalKey k;
      if (q.Peek(&k) && (!any || k.time < e_min)) {
        e_min = k.time;
        any = true;
      }
    };
    update(driver_queue_);
    for (auto& shard : shards_) update(shard->queue);
    if (!any || e_min > t_limit) break;

    // Window end (inclusive): the lookahead-aligned boundary past e_min,
    // cut at the run limit and at the next driver event (which needs the
    // workers parked).
    SimTime bound = (e_min / lookahead_ + 1) * lookahead_ - 1;
    if (t_limit < bound) bound = t_limit;
    detail::CanonicalKey driver_next;
    if (driver_queue_.Peek(&driver_next) && driver_next.time < bound) {
      bound = driver_next.time;
    }
    total += RunEpoch(bound);
  }
  return total;
}

size_t ShardedExecutor::Run(size_t limit) {
  size_t n = RunCore(UINT64_MAX, limit);
  // Settle the global clock on the last executed event, like the serial
  // backends' run-to-quiescence.
  SimTime m = horizon_;
  for (const auto& shard : shards_) {
    if (shard->clock > m) m = shard->clock;
  }
  if (driver_clock_ > m) m = driver_clock_;
  horizon_ = m;
  return n;
}

size_t ShardedExecutor::RunUntil(SimTime t) {
  assert(t >= horizon_);
  size_t n = RunCore(t, SIZE_MAX);
  horizon_ = t;
  driver_clock_ = t;
  for (auto& shard : shards_) {
    if (shard->clock < t) shard->clock = t;
  }
  return n;
}

size_t ShardedExecutor::pending() const {
  size_t n = driver_queue_.pending();
  for (const auto& shard : shards_) n += shard->queue.pending();
  return n;
}

uint64_t ShardedExecutor::events_executed() const {
  uint64_t n = driver_executed_;
  for (const auto& shard : shards_) n += shard->executed;
  return n;
}

}  // namespace pierstack::sim
