#include "dht/bamboo.h"

#include <algorithm>
#include <cassert>

namespace pierstack::dht {

BambooRouting::BambooRouting(NodeInfo self, size_t leaf_set_half)
    : self_(self), leaf_set_half_(leaf_set_half) {
  assert(leaf_set_half >= 1);
}

int BambooRouting::DigitAt(Key k, int row) {
  int shift = 64 - kBitsPerDigit * (row + 1);
  return static_cast<int>((k >> shift) & ((1u << kBitsPerDigit) - 1));
}

int BambooRouting::SharedPrefixDigits(Key a, Key b) {
  for (int row = 0; row < kNumRows; ++row) {
    if (DigitAt(a, row) != DigitAt(b, row)) return row;
  }
  return kNumRows;
}

void BambooRouting::BuildStatic(const std::vector<NodeInfo>& sorted) {
  assert(!sorted.empty());
  size_t n = sorted.size();
  size_t my_pos = n;
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i].host == self_.host) {
      my_pos = i;
      break;
    }
  }
  assert(my_pos < n && "self must be a member");

  for (const auto& m : sorted) ForgetRememberedPeer(m.host);
  leaves_cw_.clear();
  leaves_ccw_.clear();
  for (size_t i = 1; i <= leaf_set_half_ && i < n; ++i) {
    NodeInfo cw = sorted[(my_pos + i) % n];
    NodeInfo ccw = sorted[(my_pos + n - i) % n];
    if (cw.host != self_.host) leaves_cw_.push_back(cw);
    if (ccw.host != self_.host) leaves_ccw_.push_back(ccw);
  }

  // Routing table: for each (row, col), pick the member sharing `row`
  // digits with self and having digit `col` at position row. Prefer the
  // numerically closest such member (a proximity-neighbor-selection stand-
  // in; real Bamboo uses network latency).
  table_.fill(NodeInfo{});
  for (const auto& m : sorted) {
    if (m.host == self_.host) continue;
    int row = SharedPrefixDigits(self_.id, m.id);
    if (row >= kNumRows) continue;
    int col = DigitAt(m.id, row);
    size_t idx = static_cast<size_t>(row * kNumCols + col);
    if (!table_[idx].valid() ||
        RingDistance(m.id, self_.id) <
            RingDistance(table_[idx].id, self_.id)) {
      table_[idx] = m;
    }
  }
}

bool BambooRouting::IsOwner(Key target) const {
  // Owner = numerically closest node; ties broken toward the clockwise
  // neighbor (so exactly one node owns each key).
  Key mine = RingDistance(self_.id, target);
  auto beats_me = [&](const NodeInfo& peer) {
    Key theirs = RingDistance(peer.id, target);
    if (theirs < mine) return true;
    if (theirs == mine &&
        ClockwiseDistance(peer.id, target) <
            ClockwiseDistance(self_.id, target)) {
      return true;
    }
    return false;
  };
  for (const auto& p : leaves_cw_) {
    if (beats_me(p)) return false;
  }
  for (const auto& p : leaves_ccw_) {
    if (beats_me(p)) return false;
  }
  return true;
}

NodeInfo BambooRouting::NextHop(Key target) const {
  if (IsOwner(target)) return self_;

  // 1. Leaf set: if any leaf is numerically closer than self, and the key
  //    lies within the leaf-set span, jump straight to the closest leaf.
  NodeInfo best = self_;
  Key best_dist = RingDistance(self_.id, target);
  auto consider = [&](const NodeInfo& cand) {
    if (!cand.valid() || cand.host == self_.host) return;
    Key d = RingDistance(cand.id, target);
    if (d < best_dist || (d == best_dist && ClockwiseDistance(cand.id, target) <
                                                ClockwiseDistance(best.id, target))) {
      best = cand;
      best_dist = d;
    }
  };

  // 2. Prefix routing: the table entry that extends the shared prefix.
  int row = SharedPrefixDigits(self_.id, target);
  if (row < kNumRows) {
    NodeInfo entry = TableEntry(row, DigitAt(target, row));
    if (entry.valid()) return entry;
  }

  // 3. Fallback: the numerically closest known node (leaves + table) that
  //    improves on self. Guarantees progress on sparse tables.
  for (const auto& p : leaves_cw_) consider(p);
  for (const auto& p : leaves_ccw_) consider(p);
  for (const auto& e : table_) consider(e);
  return best;
}

void BambooRouting::AppendProgressCandidates(
    Key target, std::vector<NodeInfo>* out) const {
  Key mine = RingDistance(self_.id, target);
  int my_prefix = SharedPrefixDigits(self_.id, target);
  auto progresses = [&](const NodeInfo& cand) {
    return cand.valid() && cand.host != self_.host &&
           RingDistance(cand.id, target) < mine &&
           SharedPrefixDigits(cand.id, target) >= my_prefix;
  };
  auto in = [](const std::vector<NodeInfo>& peers, sim::HostId host) {
    return std::any_of(peers.begin(), peers.end(),
                       [&](const NodeInfo& n) { return n.host == host; });
  };
  // On a small ring one peer can be both a clockwise and a counter-
  // clockwise leaf, and a leaf may also fill a table slot. Each member
  // fills at most one slot (its row and column are functions of its id),
  // so table entries only need checking against the leaves.
  for (const auto& p : leaves_cw_) {
    if (progresses(p)) out->push_back(p);
  }
  for (const auto& p : leaves_ccw_) {
    if (progresses(p) && !in(leaves_cw_, p.host)) out->push_back(p);
  }
  for (const auto& e : table_) {
    if (progresses(e) && !in(leaves_cw_, e.host) && !in(leaves_ccw_, e.host)) {
      out->push_back(e);
    }
  }
}

std::vector<NodeInfo> BambooRouting::ReplicaTargets(size_t k) const {
  // Alternate cw/ccw leaves, nearest first — Bamboo replicates onto the
  // leaf set.
  std::vector<NodeInfo> out;
  size_t i = 0;
  while (out.size() < k &&
         (i < leaves_cw_.size() || i < leaves_ccw_.size())) {
    if (i < leaves_cw_.size()) out.push_back(leaves_cw_[i]);
    if (out.size() < k && i < leaves_ccw_.size()) {
      out.push_back(leaves_ccw_[i]);
    }
    ++i;
  }
  return out;
}

void BambooRouting::RemovePeer(sim::HostId host) {
  // Capture the evicted peer before dropping it — it may be partitioned,
  // not dead, and the remembered set is the reconnection thread.
  auto capture = [&](const NodeInfo& n) {
    if (n.valid() && n.host == host) Remember(n);
  };
  for (const auto& p : leaves_cw_) capture(p);
  for (const auto& p : leaves_ccw_) capture(p);
  for (const auto& e : table_) capture(e);
  auto drop = [&](std::vector<NodeInfo>* v) {
    v->erase(std::remove_if(v->begin(), v->end(),
                            [&](const NodeInfo& n) { return n.host == host; }),
             v->end());
  };
  drop(&leaves_cw_);
  drop(&leaves_ccw_);
  for (auto& e : table_) {
    if (e.valid() && e.host == host) e = NodeInfo{};
  }
}

std::vector<NodeInfo> BambooRouting::KnownPeers() const {
  std::vector<NodeInfo> out;
  auto add = [&](const NodeInfo& n) {
    if (!n.valid() || n.host == self_.host) return;
    for (const auto& e : out) {
      if (e.host == n.host) return;
    }
    out.push_back(n);
  };
  for (const auto& p : leaves_cw_) add(p);
  for (const auto& p : leaves_ccw_) add(p);
  for (const auto& e : table_) add(e);
  return out;
}

}  // namespace pierstack::dht
