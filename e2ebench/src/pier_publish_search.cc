// pier_publish_search: PIERSearch over a 500-node Chord ring, with the
// library taken from workload::GenerateTrace. 6k files are published
// during set-up; the measured schedule interleaves Publisher::PublishFile
// calls for the rest of the library (Inverted and
// InvertedCache indexes) with SearchEngine::Search calls that alternate
// kDistributedJoin and kInvertedCache, each followed by its FetchItems
// (one owner-coalesced FetchMany) of the matching Item tuples. Plan
// execution, tuple batches, rehash queues and LocalStore do most of the
// work; Gnutella and the hybrid layer are bypassed.
//
// Reference: a search's answer must be a subset of the files published
// before it completed that satisfy the strategy's match rule —
// workload::TraceIndex::Match (every term an exact keyword) for the
// distributed join; the first term an exact keyword and the rest
// substrings of the filename (FilenameMatchesQuery, the documented
// InvertedCache filter) for InvertedCache. Recall counts the files whose
// publication was issued at least kSettle before the search.
#include <algorithm>
#include <unordered_map>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/tokenizer.h"
#include "dht/builder.h"
#include "pier/node.h"
#include "piersearch/publisher.h"
#include "piersearch/schemas.h"
#include "piersearch/search_engine.h"
#include "workload.h"
#include "workload/trace.h"

namespace pierbench {
namespace {

using pierstack::Rng;
using pierstack::Status;
namespace dht = pierstack::dht;
namespace pier = pierstack::pier;
namespace piersearch = pierstack::piersearch;
namespace workload = pierstack::workload;

constexpr size_t kNodes = 500;
/// Measured operations per requested host second (calibrated on a 4-core
/// x86-64 container); half publishes, half searches.
constexpr double kOpsPerHostSecond = 1200;
/// Library files published during set-up.
constexpr size_t kPreload = 6000;
/// Open-loop issue spacing in simulated time.
constexpr sim::SimTime kSpacing = 20 * sim::kMillisecond;
/// A publish issued this long before a search must be visible to it.
constexpr sim::SimTime kSettle = 2 * sim::kSecond;
constexpr size_t kMaxResults = 5000;
constexpr sim::SimTime kUnpublished = UINT64_MAX;

class PierPublishSearch : public Workload {
 public:
  PierPublishSearch(const Params& p, Tracer* tracer)
      : p_(p), tracer_(tracer) {
    ops_ = std::max<size_t>(
        1000, static_cast<size_t>(p.seconds * kOpsPerHostSecond));
  }

  void Setup(SetupTimes* times) override {
    uint64_t t0 = HostNs();
    workload::WorkloadConfig wc;
    wc.num_nodes = kNodes;
    // The measured phase publishes ops_/2 files beyond the preload.
    wc.num_distinct_files = kPreload + ops_ / 2;
    wc.num_queries = 4000;
    wc.seed = SubSeed(p_.seed, 1);
    trace_ = workload::GenerateTrace(wc);
    index_ = std::make_unique<workload::TraceIndex>(trace_.files);
    for (const auto& f : trace_.files) by_name_.emplace(f.filename, f.id);
    published_at_.assign(trace_.files.size(), kUnpublished);
    times->trace_s = (HostNs() - t0) * 1e-9;

    t0 = HostNs();
    exec_ = MakeExecutor(tracer_);
    network_ = std::make_unique<sim::Network>(
        exec_.get(),
        std::make_unique<sim::UniformLatency>(5 * sim::kMillisecond,
                                              40 * sim::kMillisecond),
        SubSeed(p_.seed, 2));
    dht::DhtOptions opts;
    opts.overlay = dht::OverlayKind::kChord;
    opts.routing_policy = dht::RoutingPolicyKind::kCongestionAware;
    dht_ = std::make_unique<dht::DhtDeployment>(network_.get(), kNodes, opts,
                                                SubSeed(p_.seed, 3));
    for (size_t i = 0; i < kNodes; ++i) {
      piers_.push_back(
          std::make_unique<pier::PierNode>(dht_->node(i), &pier_metrics_));
      publishers_.emplace_back(piers_.back().get());
      engines_.emplace_back(piers_.back().get());
      if (tracer_ != nullptr) {
        tracer_->SetHostClass(dht_->node(i)->host(), HostClass::kDht);
      }
    }
    times->deploy_s = (HostNs() - t0) * 1e-9;

    // Preload: the first kPreload files, batched per home node.
    t0 = HostNs();
    std::vector<std::vector<piersearch::FileToPublish>> batches(kNodes);
    preloaded_ = kPreload;
    for (uint32_t f = 0; f < preloaded_; ++f) {
      batches[HomeOf(f)].push_back(FileOf(f));
      published_at_[f] = 0;
    }
    for (size_t n = 0; n < kNodes; ++n) {
      if (!batches[n].empty()) {
        publishers_[n].PublishFiles(batches[n], PublishOpts());
      }
    }
    exec_->Run();
    times->warm_s = (HostNs() - t0) * 1e-9;
  }

  void Measure(Recorder* rec, PhaseClock* clock) override {
    before_ = pier_metrics_;
    dht_before_ = dht_->metrics();
    sim::SimTime start = exec_->now();
    Rng rng(SubSeed(p_.seed, 4));
    uint32_t next_file = static_cast<uint32_t>(preloaded_);
    size_t next_query = 0;
    for (size_t i = 0; i < ops_; ++i) {
      sim::SimTime at = start + i * kSpacing + rng.NextBelow(kSpacing);
      size_t origin = rng.NextBelow(kNodes);
      if (i % 2 == 0) {
        uint32_t f = next_file++;
        exec_->ScheduleAt(sim::kDriverHost, at,
                          [this, rec, f] { Publish(rec, f); });
      } else {
        size_t q = next_query++ % trace_.queries.size();
        bool join = (i / 2) % 2 == 0;
        exec_->ScheduleAt(sim::kDriverHost, at, [this, rec, origin, q, join] {
          Search(rec, origin, q, join);
        });
      }
    }
    RunMeasured(exec_.get(), start + ops_ * kSpacing, clock);
    after_ = pier_metrics_;
    dht_after_ = dht_->metrics();
  }

  void LayerMetrics(const Recorder&, Metrics* out) override {
    auto d = [&](pierstack::RelaxedCounter pier::PierMetrics::*f) {
      return double(after_.*f - before_.*f);
    };
    out->Set("pier.stage_msgs_per_search",
             Ratio(d(&pier::PierMetrics::join_stage_messages), searches_));
    out->Set("pier.entries_shipped_per_search",
             Ratio(d(&pier::PierMetrics::posting_entries_shipped),
                   searches_));
    out->Set("pier.tuples_per_publish_msg",
             Ratio(d(&pier::PierMetrics::tuples_published),
                   d(&pier::PierMetrics::publish_messages)));
    out->Set("pier.fetch_keys_per_multiget",
             Ratio(dht_after_.multi_get_keys - dht_before_.multi_get_keys,
                   dht_after_.multi_gets - dht_before_.multi_gets));
    out->Set("pier.partial_results", d(&pier::PierMetrics::partial_results));
    out->Set("pier.plans_shed", d(&pier::PierMetrics::plans_shed));
    out->Set("pier.tuples_dropped_deserialize",
             double(pier_metrics_.tuples_dropped_deserialize));
    out->Set("piersearch.results_per_search", Ratio(hits_, searches_));
    uint64_t delivered =
        dht_after_.routes_delivered - dht_before_.routes_delivered;
    uint64_t hits = dht_after_.route_cache_hits - dht_before_.route_cache_hits;
    uint64_t misses =
        dht_after_.route_cache_misses - dht_before_.route_cache_misses;
    out->Set("dht.hops_per_route",
             Ratio(dht_after_.total_hops - dht_before_.total_hops, delivered));
    out->Set("dht.route_cache_hit_ratio", Ratio(hits, hits + misses));
    out->Set("dht.retries", dht_after_.get_retries - dht_before_.get_retries);
    out->Set("dht.routes_dropped",
             dht_after_.routes_dropped - dht_before_.routes_dropped);
  }

  void SampleCalls(Tracer* tracer) override {
    // Plan compilation on the trace's queries, with the trace's own
    // posting sizes standing in for the optimizer probes.
    pier::PostingSizeFn sizes = [this](const std::string&,
                                       const pier::Value& key) {
      return key.is_string() ? index_->PostingSize(std::string(key.AsString()))
                             : size_t{0};
    };
    std::vector<std::vector<std::string>> terms;
    for (const auto& q : trace_.queries) {
      auto t = pierstack::ExtractUniqueKeywords(q.text);
      if (!t.empty()) terms.push_back(std::move(t));
    }
    size_t calls = 0;
    uint64_t sink = 0;
    uint64_t t0 = HostNs();
    for (int rep = 0; rep < 5; ++rep) {
      for (size_t i = 0; i < terms.size(); ++i) {
        piersearch::SearchOptions o = SearchOpts(i % 2 == 0);
        pier::QueryPlan plan = piersearch::BuildSearchPlan(terms[i], o);
        pier::ReorderByPostingSize(&plan, sizes);
        sink += plan.nodes.size();
        ++calls;
      }
    }
    tracer->AddBulk(Call::kSearchCompile, calls, HostNs() - t0);
    sink_ += sink;
  }

  uint64_t TotalHops() const override { return dht_->metrics().total_hops; }
  sim::Executor& executor() override { return *exec_; }
  sim::Network& network() override { return *network_; }

 private:
  static piersearch::PublishOptions PublishOpts() {
    piersearch::PublishOptions o;
    o.inverted = true;
    o.inverted_cache = true;
    return o;
  }

  static piersearch::SearchOptions SearchOpts(bool join) {
    piersearch::SearchOptions o;
    o.strategy = join ? piersearch::SearchStrategy::kDistributedJoin
                      : piersearch::SearchStrategy::kInvertedCache;
    // The join runs smallest posting list first; InvertedCache scans the
    // first term so the reference knows which term is the exact key.
    o.order_by_posting_size = join;
    o.fetch_items = false;  // the benchmark calls FetchItems itself
    o.max_results = kMaxResults;
    return o;
  }

  size_t HomeOf(uint32_t f) const {
    return pierstack::Mix64(f ^ SubSeed(p_.seed, 5)) % kNodes;
  }

  piersearch::FileToPublish FileOf(uint32_t f) const {
    piersearch::FileToPublish out;
    out.filename = trace_.files[f].filename;
    out.size_bytes = (1u << 20) + f * 4099ull;
    out.address = dht_->node(HomeOf(f))->host();
    out.port = 6346;
    return out;
  }

  void Publish(Recorder* rec, uint32_t f) {
    sim::SimTime now = exec_->now();
    uint64_t op = rec->Begin(now);
    piersearch::FileToPublish file = FileOf(f);
    uint64_t id = 0;
    Timed(tracer_, Call::kPublishFile, op, now, [&] {
      id = publishers_[HomeOf(f)].PublishFile(
          file.filename, file.size_bytes, file.address, file.port,
          PublishOpts());
    });
    if (id != pierstack::FileId(file.filename, file.size_bytes,
                                file.address)) {
      rec->Wrong(op, "PublishFile returned an unexpected fileID");
    }
    published_at_[f] = now;
    rec->Complete(op, now, true, id, /*timed=*/false);
  }

  void Search(Recorder* rec, size_t origin, size_t q, bool join) {
    sim::SimTime now = exec_->now();
    uint64_t op = rec->Begin(now);
    ++searches_;
    piersearch::SearchOptions opts = SearchOpts(join);
    piersearch::SearchEngine* engine = &engines_[origin];
    Timed(tracer_, Call::kSearchCall, op, now, [&] {
      engine->Search(
          trace_.queries[q].text, opts,
          [this, rec, op, q, join, opts, engine](
              Status s, std::vector<piersearch::SearchHit> ids,
              const pier::Completeness& c) {
            if (!s.ok() || !c.exact || c.shed) {
              size_t ref = Reference(q, join, rec->issue_time(op)).size();
              rec->Answer(0, std::min(ref, kMaxResults));
              rec->Complete(op, exec_->now(), false, 0);
              return;
            }
            std::vector<uint64_t> file_ids;
            file_ids.reserve(ids.size());
            for (const auto& h : ids) file_ids.push_back(h.file_id);
            Timed(tracer_, Call::kFetchItems, op, exec_->now(), [&] {
              engine->FetchItems(
                  std::move(file_ids), opts,
                  [this, rec, op, q, join](
                      Status fs, std::vector<piersearch::SearchHit> hits,
                      const pier::Completeness& fc) {
                    Check(rec, op, q, join, fs.ok() && fc.exact && !fc.shed,
                          hits);
                  });
            });
          });
    });
  }

  /// Files satisfying the strategy's match rule whose publication was
  /// issued at or before `by`.
  std::vector<uint32_t> Matching(size_t q, bool join, sim::SimTime by) const {
    std::vector<std::string> terms =
        pierstack::ExtractUniqueKeywords(trace_.queries[q].text);
    std::vector<uint32_t> out;
    if (terms.empty()) return out;
    std::vector<uint32_t> candidates =
        index_->Match(join ? terms : std::vector<std::string>{terms[0]});
    std::vector<std::string> rest(terms.begin() + 1, terms.end());
    for (uint32_t f : candidates) {
      if (published_at_[f] == kUnpublished || published_at_[f] > by) continue;
      if (!join &&
          !pierstack::FilenameMatchesQuery(trace_.files[f].filename, rest)) {
        continue;
      }
      out.push_back(f);
    }
    return out;
  }

  std::vector<uint32_t> Reference(size_t q, bool join,
                                  sim::SimTime issued) const {
    return Matching(q, join, issued >= kSettle ? issued - kSettle : 0);
  }

  void Check(Recorder* rec, uint64_t op, size_t q, bool join, bool ok,
             const std::vector<piersearch::SearchHit>& hits) {
    sim::SimTime now = exec_->now();
    std::vector<uint32_t> allowed = Matching(q, join, now);
    std::vector<uint32_t> ref = Reference(q, join, rec->issue_time(op));
    std::vector<uint64_t> got;
    size_t correct = 0;
    for (const auto& h : hits) {
      auto it = by_name_.find(h.filename);
      if (it == by_name_.end() ||
          !std::binary_search(allowed.begin(), allowed.end(), it->second)) {
        rec->Wrong(op, "search for \"" + trace_.queries[q].text + "\" (" +
                           (join ? "join" : "InvertedCache") +
                           ") returned \"" + h.filename +
                           "\", which is outside the reference");
        continue;
      }
      piersearch::FileToPublish file = FileOf(it->second);
      if (h.file_id != pierstack::FileId(file.filename, file.size_bytes,
                                         file.address) ||
          h.size_bytes != file.size_bytes || h.address != file.address) {
        rec->Wrong(op, "Item tuple of \"" + h.filename +
                           "\" does not match what was published");
      }
      if (std::binary_search(ref.begin(), ref.end(), it->second)) ++correct;
      got.push_back(h.file_id);
    }
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      rec->Wrong(op, "search returned a file twice");
    }
    uint64_t h = 0;
    for (uint64_t id : got) h = pierstack::HashCombine(h, id);
    hits_ += hits.size();
    rec->Answer(correct, std::min(ref.size(), kMaxResults));
    rec->Complete(op, now, ok, h);
  }

  Params p_;
  Tracer* tracer_;
  size_t ops_ = 0;
  size_t preloaded_ = 0;
  workload::Trace trace_;
  std::unique_ptr<workload::TraceIndex> index_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::vector<sim::SimTime> published_at_;
  std::unique_ptr<sim::Executor> exec_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<dht::DhtDeployment> dht_;
  pier::PierMetrics pier_metrics_;
  std::vector<std::unique_ptr<pier::PierNode>> piers_;
  std::vector<piersearch::Publisher> publishers_;
  std::vector<piersearch::SearchEngine> engines_;
  pier::PierMetrics before_, after_;
  dht::DhtMetrics dht_before_, dht_after_;
  uint64_t searches_ = 0;
  uint64_t hits_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePierPublishSearch(const Params& p, Tracer* t) {
  return std::make_unique<PierPublishSearch>(p, t);
}

}  // namespace pierbench
