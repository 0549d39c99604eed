// GnutellaNode: one participant of the unstructured network.
//
// Implements the protocol features the paper measures (Section 4):
//  * ultrapeer / leaf roles; leaves publish their file lists to ultrapeers
//    and query through them,
//  * TTL-scoped query flooding with GUID-based duplicate suppression,
//  * query hits routed back along the reverse query path,
//  * LimeWire-style dynamic querying (probe, then widen until enough
//    results arrive),
//  * BrowseHost (fetch a neighbor's shared files) and a crawler ping that
//    returns the neighbor list (Section 4.1's topology crawl).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bloom.h"
#include "common/rng.h"
#include "common/status.h"
#include "gnutella/index.h"
#include "gnutella/types.h"

namespace pierstack::gnutella {

/// A node's reverse-path table: every GUID it has processed, with the host
/// the query came from (kInvalidHost for a query rooted here). The GUIDs
/// live in a flat open-addressing table (linear probing, backward-shift
/// deletion, doubled on demand) beside a FIFO of remember order; once the
/// FIFO holds more than `capacity` GUIDs its oldest one is forgotten.
class GuidRoutes {
 public:
  explicit GuidRoutes(size_t capacity) : capacity_(capacity) {}

  /// Records `route` for `guid`, replacing an earlier route, then evicts
  /// the FIFO's oldest GUID if it now holds more than `capacity`. A GUID
  /// remembered twice takes two FIFO places and is forgotten at the first.
  void Remember(Guid guid, sim::HostId route);

  bool Contains(Guid guid) const { return Find(guid) != nullptr; }

  /// The route recorded for `guid`, or kInvalidHost when it is unknown.
  sim::HostId RouteOf(Guid guid) const {
    const Slot* s = Find(guid);
    return s == nullptr ? sim::kInvalidHost : s->route;
  }

  /// GUIDs currently remembered.
  size_t size() const { return size_; }

  /// Bytes held by the table and the FIFO.
  size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + fifo_.capacity() * sizeof(Guid);
  }

 private:
  struct Slot {
    Guid guid = 0;
    sim::HostId route = sim::kInvalidHost;
    bool used = false;
  };

  size_t Home(Guid guid) const {
    return static_cast<size_t>((guid * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }
  /// Slot index where `guid` sits or would be inserted.
  size_t Probe(Guid guid) const;
  const Slot* Find(Guid guid) const;
  void Put(Guid guid, sim::HostId route);
  void Erase(Guid guid);

  size_t capacity_;
  std::vector<Slot> slots_;  // power-of-two size, load <= 3/4
  size_t size_ = 0;
  std::vector<Guid> fifo_;   // remember order; a ring once at capacity
  size_t oldest_ = 0;        // FIFO index of the oldest GUID
};

class GnutellaNode : public sim::Host {
 public:
  /// Receives each query-hit batch for a locally issued query.
  using ResultCallback = std::function<void(const std::vector<QueryResult>&)>;
  /// Observes queries this node processes (own, leaf-issued or forwarded).
  using QueryObserver =
      std::function<void(Guid, const std::string& text, sim::HostId from)>;
  /// Observes query-hit batches this node delivers or forwards, with the
  /// running result count for that GUID (the hybrid proxy's snooping hook).
  using HitObserver = std::function<void(Guid, const std::vector<QueryResult>&,
                                         size_t results_so_far)>;
  using BrowseCallback =
      std::function<void(Status, std::vector<SharedFile>)>;
  using CrawlCallback = std::function<void(Status, CrawlInfo)>;

  GnutellaNode(sim::Network* network, Role role, const GnutellaConfig* config,
               GnutellaMetrics* metrics, uint64_t seed);
  ~GnutellaNode() override;

  Role role() const { return role_; }
  sim::HostId host() const { return host_; }

  // --- Library ------------------------------------------------------------

  /// Replaces this node's shared files; file ids are assigned here.
  void SetSharedFiles(std::vector<std::string> filenames,
                      std::vector<uint64_t> sizes = {});
  const std::vector<SharedFile>& shared_files() const { return files_; }

  // --- Topology wiring (used by TopologyBuilder) ---------------------------

  /// Registers an ultrapeer neighbor edge (one direction; the builder adds
  /// both). Ultrapeers only.
  void AddUltrapeerNeighbor(sim::HostId neighbor);

  /// Leaf side of a leaf↔ultrapeer attachment: remembers the parent and
  /// publishes this leaf's file list to it.
  void ConnectToUltrapeer(sim::HostId ultrapeer);

  /// Re-sends this node's current file list to an already-connected parent
  /// (used after the library changed).
  void RepublishTo(sim::HostId ultrapeer);

  const std::vector<sim::HostId>& ultrapeer_neighbors() const {
    return up_neighbors_;
  }
  const std::vector<sim::HostId>& parent_ultrapeers() const {
    return parents_;
  }
  const std::vector<sim::HostId>& leaves() const { return leaf_hosts_; }

  // --- Querying -------------------------------------------------------------

  /// Issues a keyword query. On a leaf it is sent to the primary parent
  /// ultrapeer, which executes it (flooding or dynamic querying per
  /// config); on an ultrapeer it is executed directly. Hits stream into
  /// `callback` until EndQuery. Returns the query GUID.
  Guid StartQuery(const std::string& text, ResultCallback callback);

  /// Stops collecting results for a locally issued query.
  void EndQuery(Guid guid);

  /// True while the dynamic-query controller for `guid` is still widening.
  bool QueryActive(Guid guid) const;

  // --- Auxiliary protocol APIs ---------------------------------------------

  /// Fetches the files shared by `target` (Gnutella BrowseHost).
  void BrowseHost(sim::HostId target, BrowseCallback callback);

  /// Asks `target` for its neighbor list (crawler support).
  void CrawlPeer(sim::HostId target, CrawlCallback callback);

  // --- Hybrid integration hooks ---------------------------------------------

  void SetQueryObserver(QueryObserver observer) {
    query_observer_ = std::move(observer);
  }
  void SetHitObserver(HitObserver observer) {
    hit_observer_ = std::move(observer);
  }

  const KeywordIndex& index() const { return index_; }

  // --- sim::Host -------------------------------------------------------------
  void HandleMessage(sim::HostId from, const sim::Message& msg) override;

 private:
  struct QueryBody {
    Guid guid;
    uint8_t ttl;
    uint8_t hops;
    std::string text;
  };
  struct QueryHitBody {
    Guid guid;
    std::vector<QueryResult> results;
  };
  struct LeafQueryBody {
    Guid guid;
    std::string text;
  };
  struct LeafPublishBody {
    std::vector<SharedFile> files;
  };
  struct LeafBloomBody {
    BloomFilter keywords;
    size_t file_count;
  };
  struct LeafForwardBody {
    Guid guid;
    std::string text;
  };
  struct BrowseReqBody {
    uint64_t req_id;
  };
  struct BrowseReplyBody {
    uint64_t req_id;
    std::vector<SharedFile> files;
  };

  struct LocalQuery {
    ResultCallback callback;
    std::unordered_set<uint64_t> seen_file_ids;
  };

  /// Dynamic-query controller state (lives at the query-root ultrapeer).
  struct DqState {
    std::string text;
    size_t results = 0;
    std::vector<sim::HostId> pending_neighbors;  // not yet queried
    sim::EventId tick = sim::kInvalidEventId;
  };

  static size_t QueryWireBytes(const QueryBody& q) {
    return 23 + 2 + q.text.size();  // Gnutella header + min speed + text
  }
  static size_t HitWireBytes(const QueryHitBody& h);
  /// A kMsgQueryHit message carrying `matches` as results for `guid`.
  static sim::Message MakeHit(
      Guid guid, const std::vector<const KeywordIndex::Entry*>& matches);

  void ExecuteQueryAsRoot(Guid guid, const std::string& text);
  void BeginDynamicQuery(Guid guid, const std::string& text);
  void FloodQuery(QueryBody q, sim::HostId exclude);
  void SendQueryTo(sim::HostId neighbor, Guid guid, const std::string& text,
                   uint8_t ttl);
  void MatchLocally(Guid guid, const std::string& text, sim::HostId reply_to);
  void DeliverOrForwardHit(const sim::Message& hit_msg);
  void DynamicTick(Guid guid);

  sim::Network* network_;
  Role role_;
  const GnutellaConfig* config_;
  GnutellaMetrics* metrics_;
  sim::HostId host_;
  Rng rng_;

  std::vector<SharedFile> files_;
  KeywordIndex index_;

  std::vector<sim::HostId> up_neighbors_;  // ultrapeer ↔ ultrapeer
  std::vector<sim::HostId> parents_;       // leaf → ultrapeers
  std::vector<sim::HostId> leaf_hosts_;    // ultrapeer → leaves
  // QRP mode: per-leaf keyword Bloom filters instead of full file lists.
  std::unordered_map<sim::HostId, BloomFilter> leaf_blooms_;

  GuidRoutes guid_routes_;  // also the duplicate-query filter

  std::unordered_map<Guid, LocalQuery> local_queries_;
  std::unordered_map<Guid, DqState> dq_states_;

  uint64_t next_req_id_ = 1;
  std::unordered_map<uint64_t, BrowseCallback> pending_browses_;
  std::unordered_map<uint64_t, CrawlCallback> pending_crawls_;

  QueryObserver query_observer_;
  HitObserver hit_observer_;
};

}  // namespace pierstack::gnutella
