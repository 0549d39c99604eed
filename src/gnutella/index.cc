#include "gnutella/index.h"

#include <algorithm>

#include "common/hashing.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {
namespace {

/// Home slot of a term hash in a table of `mask + 1` slots.
size_t Home(uint64_t hash, size_t mask) {
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

void KeywordIndex::Add(const SharedFile& file, sim::HostId owner) {
  uint32_t idx = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{file.file_id, file.filename, file.size_bytes,
                           owner});
  ++live_entries_;
  for (const auto& term : ExtractKeywords(file.filename)) {
    // A repeated keyword finds `idx` already at the back of its list.
    auto& list = FindOrInsert(term);
    if (list.empty() || list.back() != idx) list.push_back(idx);
  }
}

void KeywordIndex::AddAll(const std::vector<SharedFile>& files,
                          sim::HostId owner) {
  for (const auto& f : files) Add(f, owner);
}

void KeywordIndex::RemoveOwner(sim::HostId owner) {
  for (auto& e : entries_) {
    if (e.owner == owner) {
      e.owner = sim::kInvalidHost;
      --live_entries_;
    }
  }
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::Match(
    const std::vector<std::string>& query_terms) const {
  // Resolve each indexable term's posting list once. An all-stop-word query
  // matches nothing, and a term no entry has empties the conjunction.
  std::vector<const std::vector<uint32_t>*> lists;
  lists.reserve(query_terms.size());
  const auto& stop = DefaultStopWords();
  for (const auto& t : query_terms) {
    if (t.size() < 2 || stop.count(t)) continue;
    const auto* list = Find(t);
    if (list == nullptr) return {};
    lists.push_back(list);
  }
  if (lists.empty()) return {};

  // Start from the shortest posting list (the paper's smaller-posting-
  // lists-first optimization applies locally too). The lists are ascending
  // by construction (append order), so the answer's order does not depend
  // on the order they are intersected in.
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<uint32_t>* a, const std::vector<uint32_t>* b) {
              return a->size() < b->size();
            });
  std::vector<uint32_t> candidates;
  candidates.reserve(lists[0]->size());
  for (uint32_t idx : *lists[0]) {
    if (Live(idx)) candidates.push_back(idx);
  }
  for (size_t t = 1; t < lists.size() && !candidates.empty(); ++t) {
    // Intersect in place; every list is at least as long as the
    // candidates, so each is searched rather than merged.
    const auto& list = *lists[t];
    auto it = list.begin();
    size_t kept = 0;
    for (uint32_t idx : candidates) {
      it = std::lower_bound(it, list.end(), idx);
      if (it == list.end()) break;
      if (*it == idx) candidates[kept++] = idx;
    }
    candidates.resize(kept);
  }
  std::vector<const Entry*> out;
  out.reserve(candidates.size());
  for (uint32_t idx : candidates) out.push_back(&entries_[idx]);
  return out;
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::MatchText(
    const std::string& query_text) const {
  return Match(SplitTerms(query_text));
}

size_t KeywordIndex::PostingListSize(std::string_view term) const {
  const auto* list = Find(term);
  return list == nullptr ? 0 : list->size();
}

std::vector<const KeywordIndex::Entry*> KeywordIndex::AllEntries() const {
  std::vector<const Entry*> out;
  out.reserve(live_entries_);
  for (const auto& e : entries_) {
    if (e.owner != sim::kInvalidHost) out.push_back(&e);
  }
  return out;
}

size_t KeywordIndex::Probe(std::string_view term, uint64_t hash) const {
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash, mask);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.posting == 0 ||
        (s.hash == hash && postings_[s.posting - 1].term == term)) {
      return i;
    }
  }
}

const std::vector<uint32_t>* KeywordIndex::Find(std::string_view term) const {
  if (slots_.empty()) return nullptr;
  const Slot& s = slots_[Probe(term, Fnv1a64(term))];
  return s.posting == 0 ? nullptr : &postings_[s.posting - 1].entries;
}

std::vector<uint32_t>& KeywordIndex::FindOrInsert(std::string_view term) {
  if ((postings_.size() + 1) * 2 > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.posting == 0) continue;
      size_t i = Home(s.hash, mask);
      while (slots_[i].posting != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }
  uint64_t hash = Fnv1a64(term);
  Slot& s = slots_[Probe(term, hash)];
  if (s.posting == 0) {
    postings_.push_back(Posting{std::string(term), {}});
    s = Slot{hash, static_cast<uint32_t>(postings_.size())};
  }
  return postings_[s.posting - 1].entries;
}

}  // namespace pierstack::gnutella
