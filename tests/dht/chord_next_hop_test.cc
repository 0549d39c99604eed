// Differential test of ChordRouting::NextHop's binary search over its
// sorted route array against the linear closest-preceding-node scan it
// replaced, across random rings and every kind of table mutation —
// including invalid, stale, duplicate and self-aliasing entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dht/chord.h"

namespace pierstack::dht {
namespace {

/// The linear scan: the successor by default, replaced by any finger or
/// successor in (self, target) strictly closer to the target, visited in
/// finger-then-successor order.
NodeInfo ReferenceNextHop(const ChordRouting& t, Key target) {
  const NodeInfo self = t.self();
  const std::vector<NodeInfo>& succs = t.successor_list();
  if (succs.empty()) return self;
  if (t.IsOwner(target)) return self;
  NodeInfo succ = succs.front();
  if (InOpenClosed(self.id, succ.id, target)) return succ;
  NodeInfo best = succ;
  Key best_dist = ClockwiseDistance(best.id, target);
  auto consider = [&](const NodeInfo& cand) {
    if (!cand.valid() || cand.host == self.host) return;
    if (!InOpenOpen(self.id, target, cand.id)) return;
    Key d = ClockwiseDistance(cand.id, target);
    if (d < best_dist) {
      best = cand;
      best_dist = d;
    }
  };
  for (size_t i = 0; i < ChordRouting::kNumFingers; ++i) {
    consider(t.finger(i));
  }
  for (const auto& s : succs) consider(s);
  return best;
}

std::vector<NodeInfo> MakeRing(size_t n, Rng* rng) {
  std::vector<NodeInfo> members;
  for (size_t i = 0; i < n; ++i) {
    members.push_back(NodeInfo{rng->Next(), static_cast<sim::HostId>(i)});
  }
  std::sort(members.begin(), members.end(),
            [](const NodeInfo& a, const NodeInfo& b) { return a.id < b.id; });
  return members;
}

class NextHopChecker {
 public:
  NextHopChecker(const std::vector<NodeInfo>& members, Rng* rng)
      : members_(members), rng_(rng) {}

  /// Compares both next-hop functions on the edge targets plus random ones.
  void Check(const ChordRouting& t, const char* state) {
    std::vector<Key> targets = {t.self().id, t.self().id + 1,
                                t.self().id - 1, t.successor().id,
                                t.successor().id + 1};
    if (t.predecessor().valid()) {
      targets.push_back(t.predecessor().id);
      targets.push_back(t.predecessor().id + 1);
    }
    for (size_t i = 0; i < ChordRouting::kNumFingers; i += 7) {
      if (t.finger(i).valid()) {
        targets.push_back(t.finger(i).id);
        targets.push_back(t.finger(i).id + 1);
      }
    }
    for (int i = 0; i < 16; ++i) targets.push_back(rng_->Next());
    for (Key target : targets) {
      NodeInfo want = ReferenceNextHop(t, target);
      NodeInfo got = t.NextHop(target);
      ASSERT_EQ(got.host, want.host)
          << state << ": self " << t.self().host << " target " << target;
      ASSERT_EQ(got.id, want.id) << state;
      ++calls_;
    }
  }

  /// A member, an invalid entry, self, a ghost host past the ring, or an
  /// alias: a member's (or self's) id under another host.
  NodeInfo Pick(const ChordRouting& t) {
    switch (rng_->NextBelow(8)) {
      case 0:
        return NodeInfo{};
      case 1:
        return t.self();
      case 2:
        return NodeInfo{rng_->Next(), GhostHost()};
      case 3:
        return NodeInfo{Member().id, GhostHost()};
      case 4:
        return NodeInfo{t.self().id, GhostHost()};
      case 5:
        return NodeInfo{t.successor().id, GhostHost()};
      default:
        return Member();
    }
  }

  NodeInfo Member() { return members_[rng_->NextBelow(members_.size())]; }

  size_t calls() const { return calls_; }

 private:
  sim::HostId GhostHost() {
    return static_cast<sim::HostId>(members_.size() + rng_->NextBelow(4));
  }

  const std::vector<NodeInfo>& members_;
  Rng* rng_;
  size_t calls_ = 0;
};

TEST(ChordNextHopTest, BinarySearchMatchesLinearScan) {
  Rng rng(20260);
  std::vector<size_t> sizes = {2, 3, 4, 9, 64, 300, 2000};
  for (int i = 0; i < 6; ++i) sizes.push_back(2 + rng.NextBelow(1999));
  size_t total_calls = 0;
  for (size_t n : sizes) {
    SCOPED_TRACE(n);
    std::vector<NodeInfo> members = MakeRing(n, &rng);
    NextHopChecker checker(members, &rng);
    for (int table = 0; table < 3; ++table) {
      ChordRouting t(checker.Member(), 1 + rng.NextBelow(8));
      checker.Check(t, "empty");
      t.BuildStatic(members);
      checker.Check(t, "BuildStatic");
      for (int step = 0; step < 120; ++step) {
        const char* state = "";
        switch (rng.NextBelow(8)) {
          case 0:
            t.RemovePeer(checker.Member().host);
            state = "RemovePeer";
            break;
          case 1:
          case 2:
            t.SetFinger(rng.NextBelow(ChordRouting::kNumFingers),
                        checker.Pick(t));
            state = "SetFinger";
            break;
          case 3:
            t.OfferSuccessor(checker.Pick(t));
            state = "OfferSuccessor";
            break;
          case 4: {
            std::vector<NodeInfo> list;
            size_t len = rng.NextBelow(10);
            for (size_t i = 0; i < len; ++i) {
              // Duplicates on purpose: repeat the previous entry at times.
              list.push_back(i > 0 && rng.NextBelow(4) == 0 ? list.back()
                                                          : checker.Pick(t));
            }
            t.SetSuccessorList(std::move(list));
            state = "SetSuccessorList";
            break;
          }
          case 5:
            t.DropPrimarySuccessor();
            state = "DropPrimarySuccessor";
            break;
          case 6:
            if (rng.NextBelow(2) == 0) {
              t.ClearPredecessor();
            } else {
              t.SetPredecessor(checker.Pick(t));
            }
            state = "SetPredecessor";
            break;
          default:
            t.BuildStatic(members);
            state = "BuildStatic";
            break;
        }
        checker.Check(t, state);
        if (HasFatalFailure()) return;
      }
    }
    total_calls += checker.calls();
  }
  EXPECT_GT(total_calls, 50000u);  // not vacuous
}

}  // namespace
}  // namespace pierstack::dht
