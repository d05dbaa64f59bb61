#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace gcon {
namespace {

// Header bounds, checked before the header's sizes allocate anything (a
// hostile header must not be able to request unbounded memory). Node ids
// and feature indices are int32 in Graph and CsrMatrix; real graphs are far
// below all four.
constexpr long long kMaxGraphNodes = 1 << 24;
constexpr long long kMaxGraphFeatures = 1 << 24;
constexpr long long kMaxGraphClasses = 1 << 16;
constexpr long long kMaxGraphEdges = 1LL << 32;

template <typename T>
void AppendNumber(T value, std::string* out) {
  char buf[32];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, value);
  out->append(buf, res.ptr);
}

bool IsBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

[[noreturn]] void Malformed(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph file '" + path + "': " + what);
}

// Quotes a token for an error message, cut short so a hostile line cannot
// make the message arbitrarily long.
std::string Quoted(std::string_view token) {
  constexpr std::size_t kMax = 40;
  std::string out = "'" + std::string(token.substr(0, kMax));
  if (token.size() > kMax) out += "...";
  return out + "'";
}

std::string ReadAll(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

// Walks the file text a line at a time and parses tokens in place with
// std::from_chars: locale-independent, and no allocation per token.
class LineReader {
 public:
  LineReader(const std::string& text, const std::string& path)
      : next_(text.data()), end_(text.data() + text.size()), path_(path) {}

  /// Moves to the next line; false at the end of the input.
  bool NextLine() {
    if (next_ == end_) return false;
    ++line_;
    pos_ = next_;
    const void* newline =
        std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
    eol_ = newline != nullptr ? static_cast<const char*>(newline) : end_;
    next_ = eol_ == end_ ? end_ : eol_ + 1;
    return true;
  }

  std::string_view Line() const {
    return {pos_, static_cast<std::size_t>(eol_ - pos_)};
  }

  /// True when only blanks remain on the line.
  bool Done() {
    while (pos_ != eol_ && IsBlank(*pos_)) ++pos_;
    return pos_ == eol_;
  }

  /// The next blank-delimited token; empty at the end of the line.
  std::string_view Token() {
    Done();
    const char* begin = pos_;
    while (pos_ != eol_ && !IsBlank(*pos_)) ++pos_;
    return {begin, static_cast<std::size_t>(pos_ - begin)};
  }

  /// The next token as an integer in [0, limit).
  long long Index(const char* what, long long limit) {
    const std::string_view token = Token();
    long long value = 0;
    const std::from_chars_result res =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (token.empty() || res.ec != std::errc() ||
        res.ptr != token.data() + token.size()) {
      Fail(std::string("bad ") + what + " " + Quoted(token));
    }
    if (value < 0 || value >= limit) {
      Fail(std::string(what) + " " + std::to_string(value) +
           " out of range [0, " + std::to_string(limit) + ")");
    }
    return value;
  }

  /// `key <count>` with the count in [0, max].
  long long Keyed(const char* key, long long max) {
    const std::string_view token = Token();
    if (token != key) {
      Fail(std::string("header wants '") + key + "', got " + Quoted(token));
    }
    return Index(key, max + 1);
  }

  /// One `idx:val` feature token, idx in [0, dim).
  void Feature(long long dim, std::int32_t* idx, double* value) {
    Done();
    const char* begin = pos_;
    int j = 0;
    const std::from_chars_result at = std::from_chars(pos_, eol_, j);
    const bool colon = at.ec == std::errc() && at.ptr != eol_ && *at.ptr == ':';
    const std::from_chars_result val =
        colon ? std::from_chars(at.ptr + 1, eol_, *value) : at;
    if (!colon || val.ec != std::errc() ||
        (val.ptr != eol_ && !IsBlank(*val.ptr))) {
      pos_ = begin;
      Fail("bad feature " + Quoted(Token()) + " (want <index>:<value>)");
    }
    if (j < 0 || j >= dim) {
      Fail("feature index " + std::to_string(j) + " out of range [0, " +
           std::to_string(dim) + ")");
    }
    *idx = j;
    pos_ = val.ptr;
  }

  [[noreturn]] void Fail(const std::string& what) const {
    Malformed(path_, "line " + std::to_string(line_) + ": " + what);
  }

 private:
  const char* next_;
  const char* end_;
  const char* pos_ = nullptr;
  const char* eol_ = nullptr;
  long line_ = 0;
  const std::string& path_;
};

bool IsPositiveZero(double v) { return v == 0.0 && !std::signbit(v); }

// The `F` records' entries in file order.
struct FeatureEntries {
  std::vector<std::int32_t> rows;
  std::vector<std::int32_t> cols;
  std::vector<double> values;
  bool sorted = true;  // (row, col) strictly increasing in file order

  void Add(std::int32_t row, std::int32_t col, double value) {
    if (sorted && !rows.empty()) {
      sorted = rows.back() < row || (rows.back() == row && cols.back() < col);
    }
    rows.push_back(row);
    cols.push_back(col);
    values.push_back(value);
  }
};

// The entries in (row, col) order, a repeated (row, col) reduced to the
// last one written.
FeatureEntries SortedLastWins(const FeatureEntries& e) {
  std::vector<std::size_t> order(e.rows.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  // Stable, so each run of equal (row, col) stays in file order.
  std::stable_sort(order.begin(), order.end(),
                   [&e](std::size_t a, std::size_t b) {
                     return e.rows[a] != e.rows[b] ? e.rows[a] < e.rows[b]
                                                   : e.cols[a] < e.cols[b];
                   });
  FeatureEntries out;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t a = order[k];
    if (k + 1 < order.size() && e.rows[order[k + 1]] == e.rows[a] &&
        e.cols[order[k + 1]] == e.cols[a]) {
      continue;
    }
    out.Add(e.rows[a], e.cols[a], e.values[a]);
  }
  return out;
}

// The canonical CSR that FromDense gives for a zeroed n x d matrix into
// which the entries were written in file order: a repeated (row, col) keeps
// its last value, then every +0 is dropped (-0 stays).
CsrMatrix BuildFeatures(std::size_t n, std::size_t d, FeatureEntries e) {
  if (!e.sorted) e = SortedLastWins(e);
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  std::size_t out = 0;  // compacts in place: never overtakes k
  for (std::size_t k = 0; k < e.values.size(); ++k) {
    if (IsPositiveZero(e.values[k])) continue;
    e.cols[out] = e.cols[k];
    e.values[out] = e.values[k];
    ++row_ptr[static_cast<std::size_t>(e.rows[k]) + 1];
    ++out;
  }
  e.cols.resize(out);
  e.values.resize(out);
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
  return CsrMatrix(n, d, std::move(row_ptr), std::move(e.cols),
                   std::move(e.values));
}

}  // namespace

void SaveGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GCON_CHECK(out.good()) << "cannot open " << path << " for writing";
  std::string text = "gcon-graph v1\nnodes ";
  AppendNumber(graph.num_nodes(), &text);
  text += " classes ";
  AppendNumber(graph.num_classes(), &text);
  text += " features ";
  AppendNumber(graph.feature_dim(), &text);
  text += " edges ";
  AppendNumber(graph.num_edges(), &text);
  text += '\n';
  for (int v = 0; v < graph.num_nodes(); ++v) {
    text += "L ";
    AppendNumber(v, &text);
    text += ' ';
    AppendNumber(graph.label(v), &text);
    text += '\n';
  }
  const CsrMatrix& x = graph.features();
  for (int v = 0; v < graph.num_nodes(); ++v) {
    text += "F ";
    AppendNumber(v, &text);
    const auto i = static_cast<std::size_t>(v);
    const std::int64_t end = i < x.rows() ? x.row_ptr()[i + 1] : 0;
    for (std::int64_t k = i < x.rows() ? x.row_ptr()[i] : 0; k < end; ++k) {
      const double value = x.values()[static_cast<std::size_t>(k)];
      if (IsPositiveZero(value)) continue;
      text += ' ';
      AppendNumber(x.col_idx()[static_cast<std::size_t>(k)], &text);
      text += ':';
      AppendNumber(value, &text);  // shortest round-trip form
    }
    text += '\n';
  }
  for (const auto& [u, v] : graph.EdgeList()) {
    text += "E ";
    AppendNumber(u, &text);
    text += ' ';
    AppendNumber(v, &text);
    text += '\n';
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  GCON_CHECK(out.good()) << "write failure on " << path;
}

Graph LoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    Malformed(path, "cannot open (missing file or no read permission)");
  }
  return LoadGraph(in, path);
}

Graph LoadGraph(std::istream& in, const std::string& path) {
  const std::string text = ReadAll(in);
  LineReader r(text, path);
  if (!r.NextLine()) {
    Malformed(path, "empty file (want a 'gcon-graph v1' header)");
  }
  if (r.Line() != "gcon-graph v1") {
    r.Fail("bad magic " + Quoted(r.Line()) + " (want 'gcon-graph v1')");
  }
  if (!r.NextLine()) Malformed(path, "truncated before the size header");
  const long long n = r.Keyed("nodes", kMaxGraphNodes);
  const long long c = r.Keyed("classes", kMaxGraphClasses);
  const long long d = r.Keyed("features", kMaxGraphFeatures);
  const long long m = r.Keyed("edges", kMaxGraphEdges);
  if (!r.Done()) r.Fail("trailing text after the size header");
  if (n > 0 && c == 0) r.Fail("nodes need at least one class");

  Graph graph(static_cast<int>(n), static_cast<int>(c));
  FeatureEntries features;
  while (r.NextLine()) {
    const std::string_view kind = r.Token();
    if (kind.empty()) continue;
    if (kind == "L") {
      const auto v = static_cast<int>(r.Index("node", n));
      graph.set_label(v, static_cast<int>(r.Index("label", c)));
    } else if (kind == "F") {
      const auto v = static_cast<std::int32_t>(r.Index("node", n));
      while (!r.Done()) {
        std::int32_t j = 0;
        double value = 0.0;
        r.Feature(d, &j, &value);
        features.Add(v, j, value);
      }
    } else if (kind == "E") {
      const auto u = static_cast<int>(r.Index("node", n));
      const auto v = static_cast<int>(r.Index("node", n));
      if (!graph.AddEdge(u, v)) {
        r.Fail(u == v ? "self loop at node " + std::to_string(u)
                      : "duplicate edge " + std::to_string(u) + "-" +
                            std::to_string(v));
      }
    } else {
      r.Fail("bad record type " + Quoted(kind));
    }
    if (!r.Done()) r.Fail("trailing text after the record");
  }
  if (graph.num_edges() != static_cast<std::size_t>(m)) {
    Malformed(path, "edge count mismatch (header declares " +
                        std::to_string(m) + ", file has " +
                        std::to_string(graph.num_edges()) + ")");
  }
  graph.set_features(BuildFeatures(static_cast<std::size_t>(n),
                                   static_cast<std::size_t>(d),
                                   std::move(features)));
  return graph;
}

}  // namespace gcon
