#include "dht/local_store.h"

#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "common/bytes.h"
#include "common/hashing.h"
#include "common/rng.h"

namespace pierstack::dht {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(LocalStoreTest, PutGetRoundTrip) {
  LocalStore store;
  EXPECT_TRUE(store.Put("items", 42, Bytes("hello")));
  auto got = store.Get("items", 42, 0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->value, Bytes("hello"));
  EXPECT_EQ(got[0]->key, 42u);
}

TEST(LocalStoreTest, MultipleValuesPerKey) {
  LocalStore store;
  store.Put("inv", 7, Bytes("a"));
  store.Put("inv", 7, Bytes("b"));
  EXPECT_EQ(store.Get("inv", 7, 0).size(), 2u);
}

TEST(LocalStoreTest, DuplicatePayloadDeduped) {
  LocalStore store;
  EXPECT_TRUE(store.Put("inv", 7, Bytes("a")));
  EXPECT_FALSE(store.Put("inv", 7, Bytes("a")));
  EXPECT_EQ(store.Get("inv", 7, 0).size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(LocalStoreTest, RepublishRefreshesExpiry) {
  LocalStore store;
  store.Put("inv", 7, Bytes("a"), /*expiry=*/100);
  store.Put("inv", 7, Bytes("a"), /*expiry=*/500);
  EXPECT_EQ(store.Get("inv", 7, 200).size(), 1u);  // still alive at 200
}

TEST(LocalStoreTest, NamespacesAreIsolated) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("b", 1, Bytes("y"));
  EXPECT_EQ(store.Get("a", 1, 0).size(), 1u);
  EXPECT_EQ(store.Get("a", 1, 0)[0]->value, Bytes("x"));
  EXPECT_EQ(store.Get("b", 1, 0)[0]->value, Bytes("y"));
  EXPECT_TRUE(store.Get("c", 1, 0).empty());
}

TEST(LocalStoreTest, ExpiryHidesValues) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"), /*expiry=*/100);
  EXPECT_EQ(store.Get("a", 1, 50).size(), 1u);
  EXPECT_EQ(store.Get("a", 1, 99).size(), 1u);
  EXPECT_TRUE(store.Get("a", 1, 100).empty());  // expiry is exclusive
  EXPECT_TRUE(store.Get("a", 1, 500).empty());
}

TEST(LocalStoreTest, ZeroExpiryNeverExpires) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"), 0);
  EXPECT_EQ(store.Get("a", 1, UINT64_MAX).size(), 1u);
}

TEST(LocalStoreTest, ScanReturnsAllLiveInNamespace) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("a", 2, Bytes("y"));
  store.Put("a", 3, Bytes("z"), /*expiry=*/10);
  EXPECT_EQ(store.Scan("a", 5).size(), 3u);
  EXPECT_EQ(store.Scan("a", 20).size(), 2u);
}

TEST(LocalStoreTest, EraseRemovesAllUnderKey) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("a", 1, Bytes("y"));
  store.Put("a", 2, Bytes("z"));
  EXPECT_EQ(store.Erase("a", 1), 2u);
  EXPECT_TRUE(store.Get("a", 1, 0).empty());
  EXPECT_EQ(store.Get("a", 2, 0).size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(LocalStoreTest, PurgeExpiredDropsAndCounts) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"), 10);
  store.Put("a", 2, Bytes("y"), 20);
  store.Put("b", 3, Bytes("z"));
  EXPECT_EQ(store.PurgeExpired(15), 1u);
  EXPECT_EQ(store.TotalEntries(0), 2u);
}

TEST(LocalStoreTest, ExtractRangeMovesOwnership) {
  LocalStore store;
  store.Put("a", 10, Bytes("ten"));
  store.Put("a", 20, Bytes("twenty"));
  store.Put("a", 30, Bytes("thirty"));
  // Range (15, 30]: keys 20 and 30.
  auto moved = store.ExtractRange("a", 15, 30);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.TotalEntries(0), 1u);
  EXPECT_EQ(store.Get("a", 10, 0).size(), 1u);
  EXPECT_TRUE(store.Get("a", 20, 0).empty());
}

TEST(LocalStoreTest, ExtractRangeWrapsRing) {
  LocalStore store;
  store.Put("a", 5, Bytes("five"));
  store.Put("a", UINT64_MAX - 5, Bytes("high"));
  store.Put("a", 1000, Bytes("mid"));
  // (MAX-10, 10] wraps: should take MAX-5 and 5 but not 1000.
  auto moved = store.ExtractRange("a", UINT64_MAX - 10, 10);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.Get("a", 1000, 0).size(), 1u);
}

TEST(LocalStoreTest, ExtractAllEmptiesNamespace) {
  LocalStore store;
  store.Put("a", 1, Bytes("x"));
  store.Put("a", 2, Bytes("y"));
  store.Put("b", 3, Bytes("z"));
  auto all = store.ExtractAll("a");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(store.Get("a", 1, 0).empty());
  EXPECT_EQ(store.Get("b", 3, 0).size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 1u);
}

TEST(LocalStoreTest, TotalBytesTracksPayloadSizes) {
  LocalStore store;
  store.Put("a", 1, Bytes("xxxx"));
  store.Put("a", 2, Bytes("yy"));
  EXPECT_EQ(store.TotalBytes(), 6u);
  store.Erase("a", 1);
  EXPECT_EQ(store.TotalBytes(), 2u);
}

TEST(LocalStoreTest, NamespacesList) {
  LocalStore store;
  store.Put("items", 1, Bytes("x"));
  store.Put("inverted", 2, Bytes("y"));
  auto ns = store.Namespaces();
  EXPECT_EQ(ns.size(), 2u);
}

// --- GetBatch image cache ---------------------------------------------------

TEST(LocalStoreImageCacheTest, RepeatedProbesShareOneImage) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"));
  store.Put("inv", 7, Bytes("bb"));
  BatchImage first = store.GetBatch("inv", 7, 0);
  BatchImage second = store.GetBatch("inv", 7, 0);
  // Cache hit: literally the same allocation, no re-assembly.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(store.image_cache_stats().misses, 1u);
  EXPECT_EQ(store.image_cache_stats().hits, 1u);
}

TEST(LocalStoreImageCacheTest, PutInvalidates) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"));
  BatchImage before = store.GetBatch("inv", 7, 0);
  store.Put("inv", 7, Bytes("bb"));
  BatchImage after = store.GetBatch("inv", 7, 0);
  EXPECT_NE(before.get(), after.get());
  EXPECT_GT(after->size(), before->size());  // new value baked in
  EXPECT_GE(store.image_cache_stats().invalidations, 1u);
  // Other keys keep their cached images.
  store.Put("inv", 8, Bytes("cc"));
  BatchImage other = store.GetBatch("inv", 8, 0);
  BatchImage again = store.GetBatch("inv", 7, 0);
  EXPECT_EQ(after.get(), again.get());
  (void)other;
}

TEST(LocalStoreImageCacheTest, RepublishRefreshInvalidates) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"), /*expiry=*/100);
  BatchImage before = store.GetBatch("inv", 7, 50);
  // Refreshing the same payload's expiry must rebuild (valid_until moves).
  store.Put("inv", 7, Bytes("aa"), /*expiry=*/500);
  BatchImage after = store.GetBatch("inv", 7, 200);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(*before, *after);  // same live set, same bytes
}

TEST(LocalStoreImageCacheTest, ExpiryOfContainedEntrySelfInvalidates) {
  LocalStore store;
  store.Put("inv", 7, Bytes("forever"));
  store.Put("inv", 7, Bytes("soft"), /*expiry=*/100);
  BatchImage live = store.GetBatch("inv", 7, 10);
  // Before the soft entry dies the image is served from cache.
  EXPECT_EQ(store.GetBatch("inv", 7, 99).get(), live.get());
  // At its expiry the image is stale and must be rebuilt without it.
  BatchImage rebuilt = store.GetBatch("inv", 7, 100);
  EXPECT_NE(rebuilt.get(), live.get());
  EXPECT_LT(rebuilt->size(), live->size());
  EXPECT_EQ((*rebuilt)[0], 1u);  // count prefix: one live entry left
}

TEST(LocalStoreImageCacheTest, EraseAndExtractInvalidate) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aa"));
  BatchImage before = store.GetBatch("inv", 7, 0);
  store.Erase("inv", 7);
  BatchImage gone = store.GetBatch("inv", 7, 0);
  EXPECT_EQ((*gone)[0], 0u);  // empty batch

  store.Put("inv", 9, Bytes("bb"));
  BatchImage nine = store.GetBatch("inv", 9, 0);
  store.ExtractAll("inv");
  EXPECT_EQ((*store.GetBatch("inv", 9, 0))[0], 0u);
  (void)before;
  (void)nine;
}

TEST(LocalStoreImageCacheTest, MissServesSharedEmptyImage) {
  LocalStore store;
  BatchImage a = store.GetBatch("nothing", 1, 0);
  BatchImage b = store.GetBatch("nothing", 2, 0);
  ASSERT_EQ(a->size(), 1u);
  EXPECT_EQ((*a)[0], 0u);
  EXPECT_EQ(a.get(), b.get());  // canonical empty image, no allocations
}

// --- Image-cache memory accounting ------------------------------------------

TEST(LocalStoreImageCacheTest, CachedImageBytesChargedIntoTotalBytes) {
  LocalStore store;
  store.Put("inv", 7, Bytes("aaaa"));
  store.Put("inv", 7, Bytes("bb"));
  size_t payload_bytes = store.TotalBytes();
  EXPECT_EQ(payload_bytes, 6u);
  BatchImage image = store.GetBatch("inv", 7, 0);
  // The cached image (count prefix + both frames) now counts as held
  // memory alongside the payloads it duplicates.
  EXPECT_EQ(store.ImageCacheBytes(), image->size());
  EXPECT_EQ(store.TotalBytes(), payload_bytes + image->size());
  // Invalidation releases the charge.
  store.Put("inv", 7, Bytes("c"));
  EXPECT_EQ(store.ImageCacheBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 7u);
}

TEST(LocalStoreImageCacheTest, EvictsOldestImagesWhenOverByteBudget) {
  LocalStore store;
  store.set_max_image_cache_bytes_per_ns(64);
  // Three posting lists of ~30 bytes each: caching the third must push the
  // first (oldest) image out to stay under the 64-byte budget.
  for (Key k = 1; k <= 3; ++k) {
    store.Put("inv", k, std::vector<uint8_t>(29, uint8_t(k)));
    store.GetBatch("inv", k, 0);
  }
  EXPECT_EQ(store.image_cache_stats().size_evictions, 1u);
  EXPECT_LE(store.ImageCacheBytes(), 64u);
  // Keys 2 and 3 still hit; key 1 was the eviction victim.
  uint64_t hits_before = store.image_cache_stats().hits;
  store.GetBatch("inv", 2, 0);
  store.GetBatch("inv", 3, 0);
  EXPECT_EQ(store.image_cache_stats().hits, hits_before + 2);
  uint64_t misses_before = store.image_cache_stats().misses;
  store.GetBatch("inv", 1, 0);
  EXPECT_EQ(store.image_cache_stats().misses, misses_before + 1);
}

TEST(LocalStoreImageCacheTest, OversizedImageServedButNotCached) {
  LocalStore store;
  store.set_max_image_cache_bytes_per_ns(16);
  store.Put("inv", 7, std::vector<uint8_t>(64, 0x7));
  BatchImage image = store.GetBatch("inv", 7, 0);
  EXPECT_EQ(image->size(), 65u);  // count prefix + frame
  // A list bigger than the whole budget must not thrash the cache.
  EXPECT_EQ(store.ImageCacheBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 64u);
  // Serving it again re-assembles (miss), still without caching.
  store.GetBatch("inv", 7, 0);
  EXPECT_EQ(store.image_cache_stats().hits, 0u);
  EXPECT_EQ(store.image_cache_stats().misses, 2u);
}

TEST(LocalStoreImageCacheTest, NamespaceDropReleasesImageBytes) {
  LocalStore store;
  store.Put("inv", 1, Bytes("abc"));
  store.Put("inv", 2, Bytes("defg"));
  store.GetBatch("inv", 1, 0);
  store.GetBatch("inv", 2, 0);
  EXPECT_GT(store.ImageCacheBytes(), 0u);
  store.ExtractAll("inv");  // namespace-wide invalidation
  EXPECT_EQ(store.ImageCacheBytes(), 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
}

// --- Randomized check against a multimap reference model ------------------

/// The store's contract restated over one std::multimap per namespace:
/// values under a key in insertion order, a re-publish of an identical
/// payload refreshes its expiry in place, expired entries stay until a
/// purge.
class ReferenceStore {
 public:
  struct Entry {
    std::vector<uint8_t> value;
    sim::SimTime expiry = 0;
  };

  bool Put(const std::string& ns, Key key, const std::vector<uint8_t>& value,
           sim::SimTime expiry) {
    auto& space = spaces_[ns];
    auto [lo, hi] = space.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.value == value) {
        it->second.expiry = expiry;
        return false;
      }
    }
    space.emplace(key, Entry{value, expiry});
    return true;
  }

  size_t Erase(const std::string& ns, Key key) {
    auto sit = spaces_.find(ns);
    return sit == spaces_.end() ? 0 : sit->second.erase(key);
  }

  /// Entries with ring key in (from, to], in walk order; `remove` takes
  /// them out.
  std::vector<std::pair<Key, Entry>> Range(const std::string& ns, Key from,
                                           Key to, bool remove) {
    std::vector<std::pair<Key, Entry>> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (auto it = sit->second.begin(); it != sit->second.end();) {
      if (InOpenClosed(from, to, it->first)) {
        out.push_back(*it);
        if (remove) {
          it = sit->second.erase(it);
          continue;
        }
      }
      ++it;
    }
    return out;
  }

  size_t PurgeExpired(sim::SimTime now) {
    size_t n = 0;
    for (auto& [ns, space] : spaces_) {
      for (auto it = space.begin(); it != space.end();) {
        if (Alive(it->second, now)) {
          ++it;
        } else {
          it = space.erase(it);
          ++n;
        }
      }
    }
    return n;
  }

  /// Live values under (ns, key), in order.
  std::vector<std::vector<uint8_t>> Get(const std::string& ns, Key key,
                                        sim::SimTime now) const {
    std::vector<std::vector<uint8_t>> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    auto [lo, hi] = sit->second.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (Alive(it->second, now)) out.push_back(it->second.value);
    }
    return out;
  }

  /// Every live (key, value) of a namespace, in walk order.
  std::vector<std::pair<Key, std::vector<uint8_t>>> Scan(
      const std::string& ns, sim::SimTime now) const {
    std::vector<std::pair<Key, std::vector<uint8_t>>> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (const auto& [k, e] : sit->second) {
      if (Alive(e, now)) out.emplace_back(k, e.value);
    }
    return out;
  }

  std::map<Key, LocalStore::KeyDigest> DigestRange(const std::string& ns,
                                                   Key from, Key to,
                                                   sim::SimTime now) const {
    std::map<Key, LocalStore::KeyDigest> out;
    auto sit = spaces_.find(ns);
    if (sit == spaces_.end()) return out;
    for (const auto& [k, e] : sit->second) {
      if (!InOpenClosed(from, to, k) || !Alive(e, now)) continue;
      out[k].hash += Mix64(Fnv1a64(std::string_view(
          reinterpret_cast<const char*>(e.value.data()), e.value.size())));
      ++out[k].count;
    }
    return out;
  }

  size_t PayloadBytes() const {
    size_t n = 0;
    for (const auto& [ns, space] : spaces_) {
      for (const auto& [k, e] : space) n += e.value.size();
    }
    return n;
  }

  std::vector<std::string> Namespaces() const {
    std::vector<std::string> out;
    for (const auto& [ns, space] : spaces_) out.push_back(ns);
    return out;
  }

  void ClearNamespace(const std::string& ns) {
    auto sit = spaces_.find(ns);
    if (sit != spaces_.end()) sit->second.clear();
  }

 private:
  static bool Alive(const Entry& e, sim::SimTime now) {
    return e.expiry == 0 || e.expiry > now;
  }

  std::map<std::string, std::multimap<Key, Entry>> spaces_;
};

/// A TupleBatch image of `values`: varint count, then the frames.
std::vector<uint8_t> ReferenceImage(
    const std::vector<std::vector<uint8_t>>& values) {
  BytesWriter w;
  w.PutVarint(values.size());
  for (const auto& v : values) w.PutBytes(v.data(), v.size());
  return w.Take();
}

using ReferenceEntries = std::vector<std::pair<Key, ReferenceStore::Entry>>;

void ExpectSameEntries(const std::vector<StoredValue>& got,
                       const ReferenceEntries& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].first) << what << " #" << i;
    EXPECT_EQ(got[i].value, want[i].second.value) << what << " #" << i;
    EXPECT_EQ(got[i].expiry, want[i].second.expiry) << what << " #" << i;
  }
}

TEST(LocalStoreModelTest, RandomOpsMatchMultimapReference) {
  // Keys cluster at both ends of the ring so ranges wrap past zero.
  const std::vector<Key> keys = {1,    2,    7,          1000,
                                 1001, 5000, UINT64_MAX - 5, UINT64_MAX};
  const std::vector<std::string> spaces = {"inv", "items"};
  // Payloads of equal length that differ only in their last byte, so a
  // hash-only or length-only compare would conflate them.
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back(Bytes("posting|keyword=abc|file=" +
                             std::to_string(i % 6) +
                             std::string(static_cast<size_t>(i / 6), '#')));
  }
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    LocalStore store;
    ReferenceStore model;
    sim::SimTime now = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::string& ns = spaces[rng.NextBelow(spaces.size())];
      Key key = keys[rng.NextBelow(keys.size())];
      Key from = keys[rng.NextBelow(keys.size())] - rng.NextBelow(2);
      Key to = keys[rng.NextBelow(keys.size())];
      std::string at = "seed " + std::to_string(seed) + " step " +
                       std::to_string(step);
      uint64_t op = rng.NextBelow(100);
      if (op < 55) {
        const auto& value = payloads[rng.NextBelow(payloads.size())];
        sim::SimTime expiry =
            rng.NextBelow(3) == 0 ? 0 : now + 1 + rng.NextBelow(50);
        ASSERT_EQ(store.Put(ns, key, value, expiry),
                  model.Put(ns, key, value, expiry))
            << at;
      } else if (op < 62) {
        ASSERT_EQ(store.Erase(ns, key), model.Erase(ns, key)) << at;
      } else if (op < 70) {
        ExpectSameEntries(store.ExtractRange(ns, from, to),
                          model.Range(ns, from, to, /*remove=*/true),
                          at + " ExtractRange");
      } else if (op < 80) {
        ExpectSameEntries(store.CollectRange(ns, from, to),
                          model.Range(ns, from, to, /*remove=*/false),
                          at + " CollectRange");
      } else if (op < 88) {
        ASSERT_EQ(store.PurgeExpired(now), model.PurgeExpired(now)) << at;
      } else if (op < 90) {
        ExpectSameEntries(store.ExtractAll(ns),
                          model.Range(ns, 0, 0, /*remove=*/false),
                          at + " ExtractAll");
        model.ClearNamespace(ns);
      } else {
        now += 1 + rng.NextBelow(20);
      }

      // The whole observable state agrees after every operation.
      ASSERT_EQ(store.TotalBytes() - store.ImageCacheBytes(),
                model.PayloadBytes())
          << at;
      ASSERT_EQ(store.Namespaces(), model.Namespaces()) << at;
      for (const std::string& s : spaces) {
        auto want_scan = model.Scan(s, now);
        auto got_scan = store.Scan(s, now);
        ASSERT_EQ(got_scan.size(), want_scan.size()) << at;
        for (size_t i = 0; i < got_scan.size(); ++i) {
          ASSERT_EQ(got_scan[i]->key, want_scan[i].first) << at;
          ASSERT_EQ(got_scan[i]->value, want_scan[i].second) << at;
        }
        std::vector<std::vector<uint8_t>> all;
        for (const auto& [k, v] : want_scan) all.push_back(v);
        ASSERT_EQ(store.ScanBatch(s, now), ReferenceImage(all)) << at;
        for (Key k : keys) {
          auto want = model.Get(s, k, now);
          auto got = store.Get(s, k, now);
          ASSERT_EQ(got.size(), want.size()) << at << " key " << k;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i]->value, want[i]) << at << " key " << k;
          }
          ASSERT_EQ(store.Has(s, k, now), !want.empty()) << at;
          ASSERT_EQ(*store.GetBatch(s, k, now), ReferenceImage(want))
              << at << " key " << k;
        }
        ASSERT_EQ(store.DigestRange(s, from, to, now),
                  model.DigestRange(s, from, to, now))
            << at;
        ASSERT_EQ(store.DigestRange(s, 0, 0, now),
                  model.DigestRange(s, 0, 0, now))
            << at;
        auto full = model.DigestRange(s, 0, 0, now);
        for (Key k : keys) {
          auto it = full.find(k);
          ASSERT_EQ(store.DigestKey(s, k, now),
                    it == full.end() ? LocalStore::KeyDigest{} : it->second)
              << at << " key " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pierstack::dht
