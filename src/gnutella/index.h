// KeywordIndex: the per-ultrapeer inverted index over shared filenames.
//
// An ultrapeer answers queries against its own files plus the file lists
// its leaves published. Matching is conjunctive keyword match: a file
// matches iff every query keyword appears among the file's keywords
// (tokenized and stop-word-filtered identically on both sides).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gnutella/types.h"

namespace pierstack::gnutella {

/// Append-oriented inverted index of shared files.
class KeywordIndex {
 public:
  struct Entry {
    uint64_t file_id;
    std::string filename;
    uint64_t size_bytes;
    sim::HostId owner;
  };

  /// Indexes one file for `owner`.
  void Add(const SharedFile& file, sim::HostId owner);

  /// Indexes a whole file list (e.g. a leaf's published library).
  void AddAll(const std::vector<SharedFile>& files, sim::HostId owner);

  /// Removes every entry owned by `owner` (leaf disconnect). O(index).
  void RemoveOwner(sim::HostId owner);

  /// All entries matching every term in `query_terms` (terms must already
  /// be tokenized/lower-cased; stop words are ignored), in the order they
  /// were added. An empty term list matches nothing — Gnutella drops empty
  /// queries.
  std::vector<const Entry*> Match(
      const std::vector<std::string>& query_terms) const;

  /// Convenience: tokenizes `query_text` then matches.
  std::vector<const Entry*> MatchText(const std::string& query_text) const;

  /// Number of posting-list entries that a lookup of `term` would scan —
  /// the local analogue of the paper's posting-list length.
  size_t PostingListSize(std::string_view term) const;

  size_t num_entries() const { return live_entries_; }

  /// All live entries (diagnostics / BrowseHost).
  std::vector<const Entry*> AllEntries() const;

 private:
  /// One term and the ascending indices of the entries it occurs in.
  struct Posting {
    std::string term;
    std::vector<uint32_t> entries;
  };
  /// Open-addressing slot: the term's 64-bit hash and 1 + its index in
  /// `postings_` (0 marks an empty slot).
  struct Slot {
    uint64_t hash = 0;
    uint32_t posting = 0;
  };

  /// The posting list of `term`, or nullptr when no entry has it.
  const std::vector<uint32_t>* Find(std::string_view term) const;
  /// The posting list of `term`, created empty on first use.
  std::vector<uint32_t>& FindOrInsert(std::string_view term);
  /// Slot index where `term` (hashed to `hash`) sits or would be inserted.
  size_t Probe(std::string_view term, uint64_t hash) const;

  std::vector<Entry> entries_;             // tombstoned via owner==kInvalidHost
  std::vector<Posting> postings_;          // never shrinks: terms are kept
  std::vector<Slot> slots_;                // power-of-two size, load <= 1/2
  size_t live_entries_ = 0;

  bool Live(uint32_t idx) const {
    return entries_[idx].owner != sim::kInvalidHost;
  }
};

}  // namespace pierstack::gnutella
