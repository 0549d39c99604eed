// The strategy-to-plan compilation contract: kDistributedJoin and
// kInvertedCache searches execute through PierNode::ExecutePlan, and must
// return exactly the answers of a hand-lowered reference plan followed by
// a separate FetchItems, at message counts within 10% — plus the
// SearchOptions::plan_rewrite hook and the FetchItems deadline fix.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dht/builder.h"
#include "piersearch/publisher.h"
#include "piersearch/schemas.h"
#include "piersearch/search_engine.h"

namespace pierstack::piersearch {
namespace {

struct Cluster {
  sim::SerialExecutor simulator;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<dht::DhtDeployment> dht;
  pier::PierMetrics metrics;
  std::vector<std::unique_ptr<pier::PierNode>> piers;

  explicit Cluster(size_t n) {
    network = std::make_unique<sim::Network>(
        &simulator,
        std::make_unique<sim::ConstantLatency>(5 * sim::kMillisecond), 23);
    // Message-parity suite: pin the classic routing path so the owner
    // location cache (warmed by whichever strategy runs first) cannot
    // skew the reference-vs-engine message comparison.
    dht::DhtOptions dopts;
    dopts.routing_policy = dht::RoutingPolicyKind::kClassicChord;
    dht = std::make_unique<dht::DhtDeployment>(network.get(), n, dopts, 321);
    for (size_t i = 0; i < n; ++i) {
      piers.push_back(
          std::make_unique<pier::PierNode>(dht->node(i), &metrics));
    }
  }
  pier::PierNode* pier(size_t i) { return piers[i].get(); }
};

void PublishCorpus(Cluster* c) {
  Publisher pub(c->pier(0));
  PublishOptions opts;
  opts.inverted = true;
  opts.inverted_cache = true;
  const char* names[] = {
      "madonna like a prayer.mp3",  "madonna vogue.mp3",
      "beatles let it be.mp3",      "beatles yesterday once more.mp3",
      "pink floyd dark side moon.mp3", "rare basement tape zanzibar.mp3",
  };
  uint64_t i = 0;
  for (const char* name : names) {
    pub.PublishFile(name, 1000 + i, static_cast<uint32_t>(100 + i), 6346,
                    opts);
    ++i;
  }
  c->simulator.Run();
}

/// The reference path, lowered by hand the way the pre-plan SearchEngine
/// described each strategy: one stage per keyword (or one InvertedCache
/// stage with a Contains filter per remaining term), run through
/// ExecutePlan, then FetchItems for the surviving fileIDs.
std::set<uint64_t> ReferenceSearch(Cluster* c, size_t from,
                                   const std::vector<std::string>& terms,
                                   const SearchOptions& options) {
  pier::PlanBuilder b;
  if (options.strategy == SearchStrategy::kInvertedCache) {
    b.IndexScan(InvertedCacheSchema().table_name(), pier::Value(terms[0]),
                kIcKeyword, kIcFileId);
    for (size_t t = 1; t < terms.size(); ++t) {
      b.Filter(pier::Expr::Contains(pier::Expr::Column(kIcFulltext),
                                    terms[t]));
    }
    b.Project({kIcFileId, kIcFulltext});
  } else {
    b.IndexScan(InvertedSchema().table_name(), pier::Value(terms[0]),
                kInvKeyword, kInvFileId);
    for (size_t t = 1; t < terms.size(); ++t) {
      b.RehashJoin(InvertedSchema().table_name(), pier::Value(terms[t]),
                   kInvKeyword, kInvFileId);
    }
  }
  b.Limit(options.max_results);
  std::set<uint64_t> ids;
  SearchEngine engine(c->pier(from));
  c->pier(from)->ExecutePlan(
      b.Build(), [&](Status s, std::vector<pier::Tuple> rows,
                     const pier::Completeness&) {
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (!options.fetch_items) {
          for (const pier::Tuple& r : rows) ids.insert(r.at(0).AsUint64());
          return;
        }
        std::vector<uint64_t> file_ids;
        for (const pier::Tuple& r : rows) {
          file_ids.push_back(r.at(0).AsUint64());
        }
        engine.FetchItems(file_ids, options, [&](Status fs, auto hits,
                                                 const pier::Completeness&) {
          ASSERT_TRUE(fs.ok()) << fs.ToString();
          for (const auto& h : hits) ids.insert(h.file_id);
        });
      });
  c->simulator.Run();
  return ids;
}

std::set<uint64_t> PlanSearch(Cluster* c, size_t from,
                              const std::string& query,
                              const SearchOptions& options) {
  SearchEngine engine(c->pier(from));
  std::set<uint64_t> ids;
  bool done = false;
  engine.Search(query, options, [&](Status s, auto hits,
                                    const pier::Completeness&) {
    done = true;
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (const auto& h : hits) ids.insert(h.file_id);
  });
  c->simulator.Run();
  EXPECT_TRUE(done);
  return ids;
}

TEST(PlanParityTest, BothStrategiesMatchReferenceAnswersAndMessageCounts) {
  Cluster c(32);
  PublishCorpus(&c);
  struct Case {
    const char* query;
    std::vector<std::string> terms;
  };
  const Case cases[] = {
      {"madonna prayer", {"madonna", "prayer"}},
      {"beatles", {"beatles"}},
      {"dark side moon", {"dark", "side", "moon"}},
  };
  for (SearchStrategy strategy :
       {SearchStrategy::kDistributedJoin, SearchStrategy::kInvertedCache}) {
    for (bool fetch : {true, false}) {
      for (const Case& tc : cases) {
        SearchOptions options;
        options.strategy = strategy;
        options.fetch_items = fetch;

        uint64_t before = c.network->metrics().total.messages;
        std::set<uint64_t> reference =
            ReferenceSearch(&c, 4, tc.terms, options);
        uint64_t reference_msgs =
            c.network->metrics().total.messages - before;

        before = c.network->metrics().total.messages;
        std::set<uint64_t> via_plan = PlanSearch(&c, 4, tc.query, options);
        uint64_t plan_msgs = c.network->metrics().total.messages - before;

        EXPECT_EQ(via_plan, reference)
            << tc.query << " strategy=" << static_cast<int>(strategy);
        EXPECT_FALSE(via_plan.empty()) << tc.query;
        // Message parity: the compiled plan rides the same staged
        // transport — within 10% of the reference (equal in practice).
        EXPECT_LE(plan_msgs * 10, reference_msgs * 11) << tc.query;
        EXPECT_LE(reference_msgs * 10, plan_msgs * 11) << tc.query;
      }
    }
  }
  EXPECT_GT(c.metrics.plans_executed, 0u);
}

TEST(PlanParityTest, OrderByPostingSizeRunsAsPlanRewrite) {
  // The §5 SHJ-order contract survives the rewrite-pass implementation:
  // one huge and one tiny posting list; the optimized plan must ship the
  // tiny one.
  Cluster c(32);
  Publisher pub(c.pier(0));
  PublishOptions opts;  // inverted only
  for (int i = 0; i < 200; ++i) {
    pub.PublishFile("popular common track" + std::to_string(i) + ".mp3",
                    1000, static_cast<uint32_t>(i), 6346, opts);
  }
  pub.PublishFile("popular unique gemstone.mp3", 999, 7, 6346, opts);
  c.simulator.Run();
  auto run = [&](bool ordered) {
    c.metrics = pier::PierMetrics{};
    SearchOptions so;
    so.order_by_posting_size = ordered;
    so.fetch_items = false;
    SearchEngine engine(c.pier(3));
    engine.Search("popular gemstone", so, [&](Status s, auto hits,
                                              const pier::Completeness&) {
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(hits.size(), 1u);
    });
    c.simulator.Run();
    return c.metrics.posting_entries_shipped;
  };
  EXPECT_GT(run(false), 100u);  // ships "popular"'s 201 entries
  EXPECT_LE(run(true), 2u);     // rewrite visits "gemstone" first
}

TEST(PlanParityTest, PlanRewriteHookShapesTheQuery) {
  Cluster c(32);
  PublishCorpus(&c);
  SearchOptions options;
  options.fetch_items = false;
  size_t hook_calls = 0;
  options.plan_rewrite = [&hook_calls](pier::QueryPlan* plan) {
    ++hook_calls;
    // Graft a tighter cap onto whatever the engine compiled.
    pier::PlanNode limit;
    limit.kind = pier::PlanNode::Kind::kLimit;
    limit.n = 1;
    limit.children.push_back(plan->root);
    plan->nodes.push_back(std::move(limit));
    plan->root = static_cast<uint32_t>(plan->nodes.size() - 1);
  };
  auto ids = PlanSearch(&c, 6, "beatles", options);
  EXPECT_EQ(hook_calls, 1u);
  EXPECT_EQ(ids.size(), 1u);  // two beatles files, hook capped to one
}

TEST(PlanParityTest, FetchItemsHonorsQueryTimeout) {
  Cluster c(24);
  // One item whose owner answers 60 simulated seconds late: the fetch leg
  // must fail the query at its own deadline instead of riding the DHT's
  // 10-second progress watchdog past it.
  uint64_t id = 42;
  c.pier(0)->PublishBatch(
      ItemSchema(),
      {pier::Tuple({pier::Value(id), pier::Value("slow file.mp3"),
                    pier::Value(uint64_t{100}), pier::Value(uint64_t{9}),
                    pier::Value(uint64_t{6346})})});
  c.pier(0)->FlushPublishQueues();
  c.simulator.Run();
  dht::Key k = HashCombine(Fnv1a64(ItemSchema().table_name()),
                           pier::Value(id).Hash());
  sim::HostId owner = c.dht->ExpectedOwner(k)->host();
  c.network->SetProcessingDelay(owner, 60 * sim::kSecond);

  size_t from = 2;
  while (c.pier(from)->host() == owner) ++from;
  ASSERT_NE(c.pier(from)->host(), owner);
  SearchOptions options;
  options.timeout = 2 * sim::kSecond;
  SearchEngine engine(c.pier(from));
  Status status = Status::OK();
  bool done = false;
  sim::SimTime finished = 0;
  engine.FetchItems({id}, options, [&](Status s, auto hits,
                                       const pier::Completeness&) {
    done = true;
    status = s;
    finished = c.simulator.now();
    EXPECT_TRUE(hits.empty());
  });
  c.simulator.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_LE(finished, 3 * sim::kSecond);
}

}  // namespace
}  // namespace pierstack::piersearch
