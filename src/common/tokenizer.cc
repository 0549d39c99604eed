#include "common/tokenizer.h"

#include <algorithm>
#include <cctype>

namespace pierstack {

const std::unordered_set<std::string>& DefaultStopWords() {
  static const std::unordered_set<std::string>* kStopWords =
      new std::unordered_set<std::string>{
          // articles / glue
          "the", "a", "an", "of", "and", "or", "to", "in", "for", "on",
          "by", "with", "at", "de", "la", "el",
          // filesharing noise terms the paper calls out
          "mp3", "avi", "mpg", "mpeg", "wav", "wma", "ogg", "mov", "wmv",
          "jpg", "jpeg", "gif", "png", "zip", "rar", "exe", "iso", "txt",
          "pdf", "cd", "dvd", "vol", "disc", "track", "feat", "ft",
          "remix", "version", "full",
      };
  return *kStopWords;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::vector<std::string> SplitTerms(std::string_view text) {
  std::vector<std::string> terms;
  std::string current;
  for (unsigned char c : text) {
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      terms.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) terms.push_back(std::move(current));
  return terms;
}

std::vector<std::string> ExtractKeywords(std::string_view filename,
                                         size_t min_len) {
  // Filter the split terms in place rather than copying the keepers out.
  std::vector<std::string> out = SplitTerms(filename);
  const auto& stop = DefaultStopWords();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const std::string& t) {
                             return t.size() < min_len || stop.count(t) > 0;
                           }),
            out.end());
  return out;
}

std::vector<std::string> ExtractUniqueKeywords(std::string_view filename,
                                               size_t min_len) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (auto& t : ExtractKeywords(filename, min_len)) {
    if (seen.insert(t).second) out.push_back(std::move(t));
  }
  return out;
}

bool FilenameMatchesQuery(std::string_view filename,
                          const std::vector<std::string>& query_terms) {
  std::string lower = ToLowerAscii(filename);
  for (const auto& term : query_terms) {
    if (lower.find(term) == std::string::npos) return false;
  }
  return true;
}

std::vector<std::string> AdjacentTermPairs(
    const std::vector<std::string>& terms) {
  std::vector<std::string> pairs;
  if (terms.size() < 2) return pairs;
  pairs.reserve(terms.size() - 1);
  for (size_t i = 0; i + 1 < terms.size(); ++i) {
    std::string p = terms[i];
    p.push_back('\x1f');
    p += terms[i + 1];
    pairs.push_back(std::move(p));
  }
  return pairs;
}

}  // namespace pierstack
