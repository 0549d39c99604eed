// sec7_hybrid: the paper's Section 7 deployment, built as
// bench/sec7_deployment.cpp builds its distributed-join run but on a
// SerialExecutor and with every seed derived from --seed. A dynamic-query
// Gnutella network of 1000 nodes (200 ultrapeers) hosts 50 hybrid
// ultrapeers that share a 50-node Bamboo DHT; QRS publishing of rare
// results (threshold 20) fills the DHT during a warm phase of regular
// Gnutella traffic, counted in set-up. The measured schedule issues hybrid
// queries open-loop from the hybrid ultrapeers' leaves: Gnutella first,
// PIERSearch (kDistributedJoin, smallest posting list first) after a 30 s
// timeout with no results. Gnutella flooding and the hybrid proxy
// dominate; the DHT is a small Bamboo ring that Chord- and PIER-heavy
// optimisations barely touch.
//
// Reference: the trace's ground truth (workload::TraceQuery::matches,
// exact-keyword conjunction, the rule both the Gnutella index and the
// distributed join apply). Any hit outside it is a wrong answer. Recall is
// the share of queries with a non-empty ground truth that returned at
// least one correct hit.
//
// Latency: a hybrid query's done callback fires at the fixed Gnutella
// timeout whenever flooding answered, so the completion time of an
// operation is its first hit's arrival, or the done callback when the
// query settles with no hit at all.
#include <algorithm>
#include <unordered_map>

#include "common/hashing.h"
#include "common/rng.h"
#include "dht/builder.h"
#include "gnutella/topology.h"
#include "hybrid/hybrid_ultrapeer.h"
#include "pier/node.h"
#include "workload.h"
#include "workload/trace.h"

namespace pierbench {
namespace {

using pierstack::Rng;
namespace dht = pierstack::dht;
namespace gnutella = pierstack::gnutella;
namespace hybrid = pierstack::hybrid;
namespace pier = pierstack::pier;
namespace piersearch = pierstack::piersearch;
namespace workload = pierstack::workload;

constexpr size_t kNodes = 1000;
constexpr size_t kHybrids = 50;
constexpr size_t kQueries = 2000;
/// Warm-phase Gnutella queries from random leaves, one per kWarmSpacing.
constexpr size_t kWarmQueries = 2000;
constexpr sim::SimTime kWarmSpacing = 500 * sim::kMillisecond;
/// Measured hybrid queries per requested host second (calibrated on a
/// 4-core x86-64 container), at least 1000.
constexpr double kQueriesPerHostSecond = 1000;
constexpr sim::SimTime kSpacing = 100 * sim::kMillisecond;

class Sec7Hybrid : public Workload {
 public:
  Sec7Hybrid(const Params& p, Tracer* tracer) : p_(p), tracer_(tracer) {
    measured_ = std::max<size_t>(
        1000, static_cast<size_t>(p.seconds * kQueriesPerHostSecond));
  }

  void Setup(SetupTimes* times) override {
    uint64_t t0 = HostNs();
    workload::WorkloadConfig wc;
    wc.num_nodes = kNodes;
    wc.num_distinct_files = kNodes * 3 / 2;
    wc.num_queries = kQueries;
    wc.max_replicas = kNodes / 8;
    wc.seed = SubSeed(p_.seed, 1);
    trace_ = workload::GenerateTrace(wc);
    for (const auto& f : trace_.files) by_name_.emplace(f.filename, f.id);
    times->trace_s = (HostNs() - t0) * 1e-9;

    t0 = HostNs();
    exec_ = MakeExecutor(tracer_);
    network_ = std::make_unique<sim::Network>(
        exec_.get(),
        std::make_unique<sim::UniformLatency>(15 * sim::kMillisecond,
                                              150 * sim::kMillisecond),
        SubSeed(p_.seed, 2));
    size_t num_ups = kNodes / 5;
    gnutella::TopologyConfig tc;
    tc.num_ultrapeers = num_ups;
    tc.num_leaves = kNodes - num_ups;
    tc.protocol.ultrapeer_degree = 16;
    tc.protocol.query_mode = gnutella::QueryMode::kDynamic;
    tc.protocol.dynamic.desired_results = 150;
    tc.protocol.dynamic.max_ttl = 2;
    tc.seed = SubSeed(p_.seed, 3);
    gnet_ = std::make_unique<gnutella::GnutellaNetwork>(network_.get(), tc);
    for (size_t i = 0; i < kNodes; ++i) {
      auto* node = gnet_->node(i);
      node->SetSharedFiles(trace_.FilenamesOfNode(i));
      if (node->role() == gnutella::Role::kLeaf) {
        for (sim::HostId up : node->parent_ultrapeers()) node->RepublishTo(up);
      }
      if (tracer_ != nullptr) {
        tracer_->SetHostClass(node->host(), HostClass::kGnutella);
      }
    }

    dht::DhtOptions dopt;
    dopt.overlay = dht::OverlayKind::kBamboo;
    dopt.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
    dht_ = std::make_unique<dht::DhtDeployment>(network_.get(), kHybrids, dopt,
                                                SubSeed(p_.seed, 4));
    hybrid::HybridConfig hc;
    hc.gnutella_timeout = 30 * sim::kSecond;
    hc.qrs_threshold = 20;
    hc.publish.inverted = true;
    hc.publish.inverted_cache = false;
    hc.search.strategy = piersearch::SearchStrategy::kDistributedJoin;
    hc.search.order_by_posting_size = true;
    for (size_t i = 0; i < kHybrids; ++i) {
      piers_.push_back(
          std::make_unique<pier::PierNode>(dht_->node(i), &pier_metrics_));
      hybrids_.push_back(std::make_unique<hybrid::HybridUltrapeer>(
          gnet_->ultrapeer(i), piers_[i].get(), hc));
      if (tracer_ != nullptr) {
        tracer_->SetHostClass(dht_->node(i)->host(), HostClass::kDht);
        tracer_->SetHostClass(gnet_->ultrapeer(i)->host(), HostClass::kHybrid);
      }
    }
    exec_->Run();
    times->deploy_s = (HostNs() - t0) * 1e-9;

    // Warm phase: regular Gnutella traffic from random leaves flows past
    // the hybrid ultrapeers, whose proxies QRS-publish rare results.
    t0 = HostNs();
    Rng rng(SubSeed(p_.seed, 5));
    sim::SimTime start = exec_->now();
    for (size_t q = 0; q < kWarmQueries; ++q) {
      size_t leaf = rng.NextBelow(tc.num_leaves);
      size_t query = rng.NextBelow(trace_.queries.size());
      exec_->ScheduleAt(
          sim::kDriverHost, start + q * kWarmSpacing, [this, leaf, query] {
            gnutella::GnutellaNode* node = gnet_->leaf(leaf);
            Timed(tracer_, Call::kGnutellaStartQuery, 0, exec_->now(), [&] {
              node->StartQuery(
                  trace_.queries[query].text,
                  [](const std::vector<gnutella::QueryResult>&) {});
            });
          });
    }
    exec_->Run();
    times->warm_s = (HostNs() - t0) * 1e-9;
    if (tracer_ != nullptr) {
      start_query_ = tracer_->call(Call::kGnutellaStartQuery);
    }
  }

  void Measure(Recorder* rec, PhaseClock* clock) override {
    pier_before_ = pier_metrics_;
    dht_before_ = dht_->metrics();
    stats_before_ = TotalStats();
    gnutella_msgs_before_ = gnet_->metrics().query_messages +
                            gnet_->metrics().query_hit_messages;
    Rng rng(SubSeed(p_.seed, 6));
    sim::SimTime start = exec_->now();
    for (size_t i = 0; i < measured_; ++i) {
      sim::SimTime at = start + i * kSpacing + rng.NextBelow(kSpacing);
      size_t h = rng.NextBelow(kHybrids);
      size_t q = rng.NextBelow(trace_.queries.size());
      exec_->ScheduleAt(sim::kDriverHost, at,
                        [this, rec, h, q] { Query(rec, h, q); });
    }
    RunMeasured(exec_.get(), start + measured_ * kSpacing, clock);
    hybrid::HybridStats after = TotalStats();
    rec->AddPartials(after.dht_partial - stats_before_.dht_partial);
  }

  void LayerMetrics(const Recorder& rec, Metrics* out) override {
    hybrid::HybridStats s = TotalStats();
    double queries = double(s.hybrid_queries - stats_before_.hybrid_queries);
    double reissued = double(s.dht_reissued - stats_before_.dht_reissued);
    out->Set("hybrid.fallback_ratio", Ratio(reissued, queries));
    out->Set("hybrid.dht_answered_ratio",
             Ratio(double(s.dht_answered - stats_before_.dht_answered),
                   reissued));
    out->Set("hybrid.rare_published_per_query",
             Ratio(double(s.rare_results_published -
                          stats_before_.rare_results_published),
                   queries));
    out->Set("hybrid.empty_query_reduction",
             Ratio(double(empty_gnutella_ - empty_hybrid_), empty_gnutella_));
    uint64_t gmsgs = gnet_->metrics().query_messages +
                     gnet_->metrics().query_hit_messages;
    out->Set("gnutella.msgs_per_query",
             Ratio(double(gmsgs - gnutella_msgs_before_), rec.attempted()));
    out->Set("gnutella.start_query_ns", start_query_.MeanNs());
    out->Set("pier.stage_msgs_per_search",
             Ratio(double(pier_metrics_.join_stage_messages -
                          pier_before_.join_stage_messages),
                   reissued));
    out->Set("pier.entries_shipped_per_search",
             Ratio(double(pier_metrics_.posting_entries_shipped -
                          pier_before_.posting_entries_shipped),
                   reissued));
    out->Set("pier.tuples_per_publish_msg",
             Ratio(double(pier_metrics_.tuples_published -
                          pier_before_.tuples_published),
                   double(pier_metrics_.publish_messages -
                          pier_before_.publish_messages)));
    out->Set("pier.partial_results", double(pier_metrics_.partial_results -
                                            pier_before_.partial_results));
    out->Set("pier.plans_shed",
             double(pier_metrics_.plans_shed - pier_before_.plans_shed));
    out->Set("pier.tuples_dropped_deserialize",
             double(pier_metrics_.tuples_dropped_deserialize));
    out->Set("piersearch.results_per_search", Ratio(dht_hits_, reissued));
    const dht::DhtMetrics& m = dht_->metrics();
    const dht::DhtMetrics& b = dht_before_;
    out->Set("dht.hops_per_route", Ratio(m.total_hops - b.total_hops,
                                         m.routes_delivered -
                                             b.routes_delivered));
    uint64_t hits = m.route_cache_hits - b.route_cache_hits;
    uint64_t misses = m.route_cache_misses - b.route_cache_misses;
    out->Set("dht.route_cache_hit_ratio", Ratio(hits, hits + misses));
    out->Set("dht.retries", m.get_retries - b.get_retries);
    out->Set("dht.routes_dropped", m.routes_dropped - b.routes_dropped);
  }

  void SampleCalls(Tracer* tracer) override {
    constexpr size_t kSample = 200000;
    Rng rng(SubSeed(p_.seed, 7));
    std::vector<std::pair<const dht::RoutingTable*, dht::Key>> pairs(kSample);
    for (auto& [table, key] : pairs) {
      table = &dht_->node(rng.NextBelow(kHybrids))->routing();
      key = rng.Next();
    }
    uint64_t sink = 0;
    uint64_t t0 = HostNs();
    for (const auto& [table, key] : pairs) sink += table->NextHop(key).host;
    tracer->AddBulk(Call::kDhtNextHop, kSample, HostNs() - t0);
    sink_ += sink;
  }

  uint64_t TotalHops() const override { return dht_->metrics().total_hops; }
  sim::Executor& executor() override { return *exec_; }
  sim::Network& network() override { return *network_; }

 private:
  struct QueryState {
    uint64_t op = 0;
    size_t q = 0;
    bool any_gnutella = false;
    bool any_dht = false;
    bool any_correct = false;
    sim::SimTime first_hit = 0;
    uint64_t digest = 0;
  };

  hybrid::HybridStats TotalStats() const {
    hybrid::HybridStats t;
    for (const auto& h : hybrids_) {
      const hybrid::HybridStats& s = h->stats();
      t.hybrid_queries += s.hybrid_queries;
      t.gnutella_answered += s.gnutella_answered;
      t.dht_reissued += s.dht_reissued;
      t.dht_answered += s.dht_answered;
      t.dht_partial += s.dht_partial;
      t.rare_results_published += s.rare_results_published;
    }
    return t;
  }

  void Query(Recorder* rec, size_t h, size_t q) {
    sim::SimTime now = exec_->now();
    auto st = std::make_shared<QueryState>();
    st->op = rec->Begin(now);
    st->q = q;
    Timed(tracer_, Call::kHybridQuery, st->op, now, [&] {
      hybrids_[h]->Query(
          trace_.queries[q].text,
          [this, rec, st](const hybrid::HybridHit& hit) {
            OnHit(rec, st, hit);
          },
          [this, rec, st] { OnDone(rec, st); });
    });
  }

  void OnHit(Recorder* rec, const std::shared_ptr<QueryState>& st,
             const hybrid::HybridHit& hit) {
    const workload::TraceQuery& query = trace_.queries[st->q];
    auto it = by_name_.find(hit.filename);
    if (it == by_name_.end() ||
        !std::binary_search(query.matches.begin(), query.matches.end(),
                            it->second)) {
      rec->Wrong(st->op, "hybrid query \"" + query.text + "\" returned \"" +
                             hit.filename + "\" (" +
                             (hit.via_dht ? "DHT" : "Gnutella") +
                             "), which is outside the trace ground truth");
      return;
    }
    if (!st->any_gnutella && !st->any_dht) st->first_hit = hit.arrival;
    (hit.via_dht ? st->any_dht : st->any_gnutella) = true;
    st->any_correct = true;
    if (hit.via_dht) ++dht_hits_;
    st->digest = pierstack::HashCombine(st->digest, hit.file_id);
  }

  void OnDone(Recorder* rec, const std::shared_ptr<QueryState>& st) {
    const workload::TraceQuery& query = trace_.queries[st->q];
    bool any = st->any_gnutella || st->any_dht;
    if (!query.matches.empty()) {
      rec->Answer(st->any_correct ? 1 : 0, 1);
      if (!st->any_gnutella) {
        ++empty_gnutella_;
        if (!any) ++empty_hybrid_;
      }
    }
    rec->Complete(st->op, any ? st->first_hit : exec_->now(), true,
                  st->digest);
  }

  Params p_;
  Tracer* tracer_;
  size_t measured_ = 0;
  workload::Trace trace_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::unique_ptr<sim::Executor> exec_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<gnutella::GnutellaNetwork> gnet_;
  std::unique_ptr<dht::DhtDeployment> dht_;
  pier::PierMetrics pier_metrics_;
  std::vector<std::unique_ptr<pier::PierNode>> piers_;
  std::vector<std::unique_ptr<hybrid::HybridUltrapeer>> hybrids_;
  pier::PierMetrics pier_before_;
  dht::DhtMetrics dht_before_;
  hybrid::HybridStats stats_before_;
  uint64_t gnutella_msgs_before_ = 0;
  TimeStat start_query_;
  uint64_t empty_gnutella_ = 0;
  uint64_t empty_hybrid_ = 0;
  uint64_t dht_hits_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSec7Hybrid(const Params& p, Tracer* t) {
  return std::make_unique<Sec7Hybrid>(p, t);
}

}  // namespace pierbench
