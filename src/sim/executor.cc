#include "sim/executor.h"

#include <cassert>
#include <cstdlib>

#include "sim/shard.h"

namespace pierstack::sim {
namespace detail {

EventId CanonicalQueue::Push(const CanonicalKey& key, HostId owner,
                             std::function<void()>&& fn) {
  uint32_t slot;
  if (free_.empty()) {
    assert(slots_.size() < (size_t{1} << kSlotBits));
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.owner = owner;
  heap_.push_back({key.time, key.origin_seq, key.origin, slot});
  SiftUp(heap_.size() - 1);
  return (EventId{s.gen} << kSlotBits) | slot;
}

void CanonicalQueue::SiftUp(size_t pos) {
  Entry e = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 4;
    if (!Before(e, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void CanonicalQueue::SiftDown(size_t pos) {
  Entry e = heap_[pos];
  size_t n = heap_.size();
  for (;;) {
    size_t first = 4 * pos + 1;
    if (first >= n) break;
    size_t last = first + 4 < n ? first + 4 : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], e)) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, e);
}

std::function<void()> CanonicalQueue::RemoveAt(size_t pos) {
  Slot& s = slots_[heap_[pos].slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  s.heap_pos = kFree;
  s.gen = s.gen == kMaxGen ? 1 : s.gen + 1;
  free_.push_back(heap_[pos].slot);

  Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Place(pos, last);
    if (pos > 0 && Before(last, heap_[(pos - 1) / 4])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }
  return fn;
}

bool CanonicalQueue::PopUpTo(SimTime bound, CanonicalEvent* out) {
  if (heap_.empty() || heap_.front().time > bound) return false;
  const Entry& top = heap_.front();
  out->key = {top.time, top.origin, top.origin_seq};
  out->owner = slots_[top.slot].owner;
  out->fn = RemoveAt(0);
  return true;
}

bool CanonicalQueue::Peek(CanonicalKey* key) const {
  if (heap_.empty()) return false;
  const Entry& top = heap_.front();
  *key = {top.time, top.origin, top.origin_seq};
  return true;
}

bool CanonicalQueue::Cancel(EventId handle) {
  uint64_t slot = handle & ((EventId{1} << kSlotBits) - 1);
  uint64_t gen = handle >> kSlotBits;
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.heap_pos == kFree || s.gen != gen) return false;
  // The closure dies at the end of this statement, after the heap is
  // consistent again: its captures' destructors may reenter the queue.
  RemoveAt(s.heap_pos);
  return true;
}

}  // namespace detail

EventId SerialExecutor::ScheduleAt(HostId owner, SimTime t,
                                   std::function<void()> fn) {
  assert(t >= now_);
  uint64_t seq = current_origin_ == kDriverHost
                     ? driver_seq_++
                     : detail::NextOriginSeq(&origin_seq_, current_origin_);
  return queue_.Push({t, current_origin_, seq}, owner, std::move(fn));
}

bool SerialExecutor::Cancel(EventId id) { return queue_.Cancel(id); }

bool SerialExecutor::RunOne(SimTime bound) {
  detail::CanonicalEvent ev;
  if (!queue_.PopUpTo(bound, &ev)) return false;
  now_ = ev.key.time;
  current_origin_ = ev.owner;
  ++executed_;
  ev.fn();
  current_origin_ = kDriverHost;
  return true;
}

size_t SerialExecutor::Run(size_t limit) {
  size_t n = 0;
  while (n < limit && RunOne(SIZE_MAX)) ++n;
  return n;
}

size_t SerialExecutor::RunUntil(SimTime t) {
  size_t n = 0;
  while (RunOne(t)) ++n;
  if (now_ < t) now_ = t;
  return n;
}

std::unique_ptr<Executor> MakeEnvExecutor(SimTime lookahead) {
  const char* env = std::getenv("PIERSTACK_SHARDS");
  long shards = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  if (shards > 1 && lookahead > 0) {
    ShardedExecutor::Options opts;
    opts.shards = static_cast<uint32_t>(shards);
    opts.lookahead = lookahead;
    return std::make_unique<ShardedExecutor>(opts);
  }
  return std::make_unique<SerialExecutor>();
}

}  // namespace pierstack::sim
