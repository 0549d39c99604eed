#include "gnutella/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/tokenizer.h"

namespace pierstack::gnutella {
namespace {

SharedFile File(const std::string& name, uint64_t size = 1000) {
  SharedFile f;
  f.filename = name;
  f.size_bytes = size;
  f.file_id = MakeFileId(name, size, 1);
  return f;
}

TEST(KeywordIndexTest, SingleTermMatch) {
  KeywordIndex idx;
  idx.Add(File("madonna like a prayer.mp3"), 1);
  idx.Add(File("beatles help.mp3"), 2);
  auto m = idx.MatchText("madonna");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0]->owner, 1u);
}

TEST(KeywordIndexTest, ConjunctiveMatchRequiresAllTerms) {
  KeywordIndex idx;
  idx.Add(File("madonna like a prayer.mp3"), 1);
  idx.Add(File("madonna vogue.mp3"), 2);
  EXPECT_EQ(idx.MatchText("madonna prayer").size(), 1u);
  EXPECT_EQ(idx.MatchText("madonna").size(), 2u);
  EXPECT_TRUE(idx.MatchText("madonna help").empty());
}

TEST(KeywordIndexTest, StopWordsIgnoredInQueries) {
  KeywordIndex idx;
  idx.Add(File("the matrix.avi"), 1);
  // "the" and "avi" are stop words on both sides.
  EXPECT_EQ(idx.MatchText("the matrix").size(), 1u);
  EXPECT_EQ(idx.MatchText("matrix avi").size(), 1u);
}

TEST(KeywordIndexTest, AllStopWordQueryMatchesNothing) {
  KeywordIndex idx;
  idx.Add(File("the matrix.avi"), 1);
  EXPECT_TRUE(idx.MatchText("the mp3").empty());
  EXPECT_TRUE(idx.MatchText("").empty());
}

TEST(KeywordIndexTest, MultipleOwnersSameFilename) {
  KeywordIndex idx;
  idx.Add(File("dark side of the moon.mp3"), 1);
  idx.Add(File("dark side of the moon.mp3"), 2);
  EXPECT_EQ(idx.MatchText("moon dark").size(), 2u);
}

TEST(KeywordIndexTest, RemoveOwnerHidesEntries) {
  KeywordIndex idx;
  idx.Add(File("abba dancing queen.mp3"), 1);
  idx.Add(File("abba waterloo.mp3"), 2);
  EXPECT_EQ(idx.num_entries(), 2u);
  idx.RemoveOwner(1);
  EXPECT_EQ(idx.num_entries(), 1u);
  auto m = idx.MatchText("abba");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0]->owner, 2u);
}

TEST(KeywordIndexTest, PostingListSizes) {
  KeywordIndex idx;
  idx.Add(File("abba dancing queen.mp3"), 1);
  idx.Add(File("abba waterloo.mp3"), 1);
  EXPECT_EQ(idx.PostingListSize("abba"), 2u);
  EXPECT_EQ(idx.PostingListSize("waterloo"), 1u);
  EXPECT_EQ(idx.PostingListSize("nothing"), 0u);
}

TEST(KeywordIndexTest, MatchAgreesWithSubstringRuleOnTokenQueries) {
  // For whole-token queries over these names, the index's conjunctive
  // keyword match must agree with the Gnutella substring rule.
  std::vector<std::string> names{
      "silver hammer midnight.mp3", "silver moon.mp3",
      "hammer time club.mp3", "midnight silver hammer live.mp3"};
  KeywordIndex idx;
  for (size_t i = 0; i < names.size(); ++i) {
    idx.Add(File(names[i]), static_cast<sim::HostId>(i));
  }
  std::vector<std::vector<std::string>> queries{
      {"silver"}, {"silver", "hammer"}, {"hammer", "club"}, {"moon"},
      {"silver", "hammer", "midnight"}};
  for (const auto& q : queries) {
    auto matched = idx.Match(q);
    size_t expected = 0;
    for (const auto& n : names) {
      if (FilenameMatchesQuery(n, q)) ++expected;
    }
    EXPECT_EQ(matched.size(), expected);
  }
}

TEST(KeywordIndexTest, AllEntriesListsLiveOnly) {
  KeywordIndex idx;
  idx.Add(File("one.mp3x a"), 1);
  idx.Add(File("two.mp3x b"), 2);
  idx.RemoveOwner(1);
  EXPECT_EQ(idx.AllEntries().size(), 1u);
}

// Model test: random adds, whole-list adds, owner removals and re-publishes
// against a reference that scans every live entry. The vocabulary mixes
// stop words, one-character terms, upper case, words of equal frequency
// (posting-size ties) and words no file ever has (missing terms).
class KeywordIndexModel {
 public:
  struct RefEntry {
    uint64_t file_id;
    std::string filename;
    sim::HostId owner;
    bool live;
    std::vector<std::string> keywords;
  };

  void Add(const SharedFile& f, sim::HostId owner) {
    entries_.push_back(RefEntry{f.file_id, f.filename, owner, true,
                                ExtractUniqueKeywords(f.filename)});
  }
  void RemoveOwner(sim::HostId owner) {
    for (auto& e : entries_) {
      if (e.owner == owner) e.live = false;
    }
  }
  std::vector<const RefEntry*> Match(
      const std::vector<std::string>& terms) const {
    std::vector<std::string> wanted;
    for (const auto& t : terms) {
      if (t.size() >= 2 && !DefaultStopWords().count(t)) wanted.push_back(t);
    }
    std::vector<const RefEntry*> out;
    if (wanted.empty()) return out;
    for (const auto& e : entries_) {
      if (!e.live) continue;
      bool all = std::all_of(wanted.begin(), wanted.end(), [&](const auto& t) {
        return std::find(e.keywords.begin(), e.keywords.end(), t) !=
               e.keywords.end();
      });
      if (all) out.push_back(&e);
    }
    return out;
  }
  /// Entries ever added with `term`, removed ones included.
  size_t PostingListSize(const std::string& term) const {
    size_t n = 0;
    for (const auto& e : entries_) {
      n += std::count(e.keywords.begin(), e.keywords.end(), term);
    }
    return n;
  }
  size_t live() const {
    return std::count_if(entries_.begin(), entries_.end(),
                         [](const RefEntry& e) { return e.live; });
  }

 private:
  std::vector<RefEntry> entries_;
};

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> words{
      "the",   "mp3",   "a",     "x",     "7",      "of",    "Live",
      "LIVE",  "alpha", "beta",  "gamma", "delta",  "omega", "sun",
      "moon",  "star",  "river", "stone", "ab",     "zz",    "echo",
      "night", "day",   "blue",  "red",   "green",  "remix", "01"};
  return words;
}

const std::vector<std::string>& MissingWords() {
  static const std::vector<std::string> words{"nowhere", "qq", "absent9"};
  return words;
}

std::string RandomText(Rng* rng, size_t max_words, bool with_missing) {
  static const char* kSeparators[] = {" ", "_", "-", ".", "  ", "("};
  std::string text;
  size_t words = 1 + rng->NextBelow(max_words);
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) text += kSeparators[rng->NextBelow(6)];
    if (with_missing && rng->NextBelow(8) == 0) {
      text += MissingWords()[rng->NextBelow(MissingWords().size())];
    } else {
      text += Vocabulary()[rng->NextBelow(Vocabulary().size())];
    }
  }
  return text;
}

void ExpectSameMatches(const std::vector<const KeywordIndex::Entry*>& got,
                       const std::vector<const KeywordIndexModel::RefEntry*>&
                           want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->file_id, want[i]->file_id) << what << " at " << i;
    EXPECT_EQ(got[i]->filename, want[i]->filename) << what << " at " << i;
    EXPECT_EQ(got[i]->owner, want[i]->owner) << what << " at " << i;
  }
}

TEST(KeywordIndexTest, MatchesBruteForceModel) {
  constexpr sim::HostId kOwners = 8;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    KeywordIndex idx;
    KeywordIndexModel model;
    uint64_t next_file_id = 1;
    auto random_file = [&] {
      SharedFile f;
      f.filename = RandomText(&rng, 5, false);
      f.size_bytes = 1000;
      f.file_id = next_file_id++;
      return f;
    };
    size_t nonempty_matches = 0;
    for (size_t step = 0; step < 2500; ++step) {
      uint64_t op = rng.NextBelow(10);
      sim::HostId owner = static_cast<sim::HostId>(rng.NextBelow(kOwners));
      if (op < 3) {
        SharedFile f = random_file();
        idx.Add(f, owner);
        model.Add(f, owner);
      } else if (op < 4) {
        std::vector<SharedFile> files(rng.NextBelow(5));
        for (auto& f : files) f = random_file();
        idx.AddAll(files, owner);
        for (const auto& f : files) model.Add(f, owner);
      } else if (op < 5) {
        // A leaf re-publishes: its old list is replaced by a new one.
        std::vector<SharedFile> files(1 + rng.NextBelow(4));
        for (auto& f : files) f = random_file();
        idx.RemoveOwner(owner);
        model.RemoveOwner(owner);
        idx.AddAll(files, owner);
        for (const auto& f : files) model.Add(f, owner);
      } else if (op < 6) {
        idx.RemoveOwner(owner);
        model.RemoveOwner(owner);
      } else if (op < 8) {
        std::string text = RandomText(&rng, 4, true);
        auto want = model.Match(SplitTerms(text));
        nonempty_matches += !want.empty();
        ExpectSameMatches(idx.MatchText(text), want, "MatchText " + text);
      } else {
        // Pre-tokenized terms, repeats allowed, straight from the pools.
        std::vector<std::string> terms(rng.NextBelow(4));
        for (auto& t : terms) {
          t = rng.NextBelow(6) == 0
                  ? MissingWords()[rng.NextBelow(MissingWords().size())]
                  : ToLowerAscii(
                        Vocabulary()[rng.NextBelow(Vocabulary().size())]);
        }
        if (!terms.empty() && rng.NextBelow(3) == 0) {
          terms.push_back(terms.front());
        }
        ExpectSameMatches(idx.Match(terms), model.Match(terms), "Match");
      }
      ASSERT_EQ(idx.num_entries(), model.live());
      ASSERT_EQ(idx.AllEntries().size(), model.live());
      if (::testing::Test::HasFailure()) return;
    }
    for (const auto& w : Vocabulary()) {
      std::string t = ToLowerAscii(w);
      EXPECT_EQ(idx.PostingListSize(t), model.PostingListSize(t)) << t;
    }
    for (const auto& w : MissingWords()) {
      EXPECT_EQ(idx.PostingListSize(w), 0u) << w;
    }
    EXPECT_GT(nonempty_matches, 100u);  // the model is not vacuous
  }
}

TEST(KeywordIndexTest, TiedPostingSizesKeepAddOrder) {
  KeywordIndex idx;
  idx.Add(File("red blue"), 1);
  idx.Add(File("blue red"), 2);
  idx.Add(File("red green"), 3);
  idx.Add(File("blue green red"), 4);
  ASSERT_EQ(idx.PostingListSize("red"), 4u);
  ASSERT_EQ(idx.PostingListSize("blue"), 3u);
  ASSERT_EQ(idx.PostingListSize("green"), 2u);
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"red", "blue"}, {"blue", "red"}, {"green", "blue", "red"}}) {
    std::vector<sim::HostId> owners;
    for (const auto* e : idx.Match(q)) owners.push_back(e->owner);
    std::vector<sim::HostId> want =
        q.size() == 2 ? std::vector<sim::HostId>{1, 2, 4}
                      : std::vector<sim::HostId>{4};
    EXPECT_EQ(owners, want);
  }
}

TEST(KeywordIndexTest, RepeatedKeywordIndexedOnce) {
  KeywordIndex idx;
  idx.Add(File("echo echo ECHO canyon"), 1);
  EXPECT_EQ(idx.PostingListSize("echo"), 1u);
  EXPECT_EQ(idx.MatchText("echo echo").size(), 1u);
}

TEST(KeywordIndexTest, MissingTermEmptiesConjunction) {
  KeywordIndex idx;
  idx.Add(File("alpha beta"), 1);
  EXPECT_TRUE(idx.Match({"alpha", "nowhere"}).empty());
  EXPECT_TRUE(idx.Match({"nowhere", "alpha"}).empty());
  // Stop words and one-character terms are not terms, so they miss nothing.
  EXPECT_EQ(idx.Match({"alpha", "the", "x"}).size(), 1u);
}

}  // namespace
}  // namespace pierstack::gnutella
