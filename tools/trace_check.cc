// trace_check: validates a JSONL span trace written by the CLI's --trace
// flag (obs::WriteTraceJsonl). Exits 0 when the trace is well-formed:
//
//  - every line is one complete span object with the expected fields;
//  - span ids are unique and hierarchical: a child's id is its parent's id
//    plus ".<ordinal>", and the parent span is present in the trace;
//  - timestamps are monotonic: end_ns >= start_ns, and a child never
//    starts before its parent (children may END after their parent —
//    degradation follow-ups outlive the failed component's span);
//  - per plan span, the "ms" annotations of its phase:plan / phase:query /
//    phase:bind / phase:tag descendants sum to the plan's plan_ms /
//    query_ms / bind_ms / tag_ms annotations (the trace reproduces the
//    metrics), within 1% plus the %.3f formatting slack;
//  - per "server" span (a remote subtree stitched under a client attempt
//    span, DESIGN.md §14), the "ms" annotations of its direct phase:*
//    children sum to no more than the client-side parent span's duration
//    within tolerance: server-measured work cannot exceed what the client
//    observed for the whole exchange, or the stitch re-based timestamps
//    against the wrong span.
//
// Usage: trace_check FILE   (or "-" for stdin)
//
// The parser covers exactly the JSON subset WriteSpanJsonl emits: a flat
// object of string and number fields plus "annotations" as an array of
// [key, value] string pairs.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

struct SpanRec {
  std::string id;
  std::string parent;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double duration_ms = 0;
  std::vector<std::pair<std::string, std::string>> annotations;

  const std::string* Find(std::string_view key) const {
    for (const auto& [k, v] : annotations) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// --- Minimal JSON reader for WriteSpanJsonl's output -----------------------

class LineParser {
 public:
  explicit LineParser(std::string_view line) : in_(line) {}

  bool Parse(SpanRec* span, std::string* error) {
    if (!Expect('{')) return Fail(error, "expected '{'");
    bool first = true;
    while (true) {
      SkipWs();
      if (Peek() == '}') {
        ++pos_;
        SkipWs();
        if (pos_ != in_.size()) return Fail(error, "trailing characters");
        return true;
      }
      if (!first && !Expect(',')) return Fail(error, "expected ','");
      first = false;
      std::string key;
      if (!ParseString(&key)) return Fail(error, "expected field name");
      if (!Expect(':')) return Fail(error, "expected ':'");
      if (!ParseValue(key, span)) {
        return Fail(error, "bad value for field '" + key + "'");
      }
    }
  }

 private:
  bool ParseValue(const std::string& key, SpanRec* span) {
    SkipWs();
    if (key == "id") return ParseString(&span->id);
    if (key == "parent") return ParseString(&span->parent);
    if (key == "name") return ParseString(&span->name);
    if (key == "start_ns") return ParseUint(&span->start_ns);
    if (key == "end_ns") return ParseUint(&span->end_ns);
    if (key == "duration_ms") return ParseDouble(&span->duration_ms);
    if (key == "annotations") return ParseAnnotations(&span->annotations);
    return false;  // unknown field: the format grew without updating us
  }

  bool ParseAnnotations(
      std::vector<std::pair<std::string, std::string>>* out) {
    if (!Expect('[')) return false;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Expect('[')) return false;
      std::string key, value;
      if (!ParseString(&key)) return false;
      if (!Expect(',')) return false;
      if (!ParseString(&value)) return false;
      if (!Expect(']')) return false;
      out->emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      if (!Expect(',')) return false;
    }
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (!Expect('"')) return false;
    out->clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      char esc = in_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return false;
          unsigned code = std::strtoul(
              std::string(in_.substr(pos_, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          out->push_back(static_cast<char>(code));  // control chars only
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseUint(uint64_t* out) {
    SkipWs();
    size_t start = pos_;
    while (pos_ < in_.size() && std::isdigit(static_cast<unsigned char>(
                                    in_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return false;
    *out = std::strtoull(std::string(in_.substr(start, pos_ - start)).c_str(),
                         nullptr, 10);
    return true;
  }

  bool ParseDouble(double* out) {
    SkipWs();
    size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == '-' || in_[pos_] == '+' ||
            in_[pos_] == 'e' || in_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    *out = std::strtod(std::string(in_.substr(start, pos_ - start)).c_str(),
                       nullptr);
    return true;
  }

  char Peek() const { return pos_ < in_.size() ? in_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Expect(char c) {
    SkipWs();
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool Fail(std::string* error, std::string message) {
    *error = std::move(message) + " at offset " + std::to_string(pos_);
    return false;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

// --- Checks ----------------------------------------------------------------

int Problem(size_t line, const std::string& id, const std::string& what) {
  std::cerr << "trace_check: line " << line << " (span '" << id
            << "'): " << what << "\n";
  return 1;
}

/// The phase-vs-plan reconciliation: the sum of `phase_name` descendants'
/// "ms" annotations must reproduce the plan's `plan_key` annotation within
/// 1% plus the per-span %.3f rounding slack.
bool CheckPhaseSum(const SpanRec& plan, const std::vector<SpanRec>& spans,
                   const std::string& phase_name, const std::string& plan_key,
                   size_t plan_line) {
  const std::string* expected_text = plan.Find(plan_key);
  if (expected_text == nullptr) return true;  // older trace; nothing to check
  double expected = std::strtod(expected_text->c_str(), nullptr);
  double sum = 0;
  size_t n = 0;
  std::string prefix = plan.id + ".";
  for (const SpanRec& s : spans) {
    if (s.name != phase_name) continue;
    if (s.id.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string* ms = s.Find("ms");
    if (ms == nullptr) continue;  // failed phase: no measured value
    sum += std::strtod(ms->c_str(), nullptr);
    ++n;
  }
  double tolerance = 0.01 * expected + 0.001 * static_cast<double>(n + 1);
  if (std::fabs(sum - expected) > tolerance) {
    Problem(plan_line, plan.id,
            phase_name + " spans sum to " + std::to_string(sum) +
                " ms but the plan reports " + plan_key + "=" +
                std::to_string(expected));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " trace.jsonl  (or - for stdin)\n";
    return 2;
  }
  std::ifstream file;
  std::istream* in = &std::cin;
  if (std::string_view(argv[1]) != "-") {
    file.open(argv[1]);
    if (!file.is_open()) {
      std::cerr << "trace_check: cannot open '" << argv[1] << "'\n";
      return 2;
    }
    in = &file;
  }

  std::vector<SpanRec> spans;
  std::vector<size_t> lines;  // source line of spans[i]
  std::map<std::string, size_t> by_id;
  std::string line;
  size_t line_no = 0;
  int failures = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    SpanRec span;
    std::string error;
    if (!LineParser(line).Parse(&span, &error)) {
      failures += Problem(line_no, "?", "parse error: " + error);
      continue;
    }
    if (span.id.empty()) failures += Problem(line_no, span.id, "empty id");
    if (span.name.empty()) failures += Problem(line_no, span.id, "empty name");
    if (span.end_ns < span.start_ns) {
      failures += Problem(line_no, span.id, "end_ns before start_ns");
    }
    if (!by_id.emplace(span.id, spans.size()).second) {
      failures += Problem(line_no, span.id, "duplicate span id");
    }
    spans.push_back(std::move(span));
    lines.push_back(line_no);
  }
  if (spans.empty()) {
    std::cerr << "trace_check: no spans\n";
    return 1;
  }

  size_t roots = 0;
  size_t plans = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& span = spans[i];
    if (span.parent.empty()) {
      ++roots;
      continue;
    }
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      failures += Problem(lines[i], span.id,
                          "parent '" + span.parent + "' not in trace");
      continue;
    }
    const SpanRec& parent = spans[it->second];
    // Hierarchical ids: the child extends its parent's id by one ordinal.
    std::string prefix = span.parent + ".";
    if (span.id.compare(0, prefix.size(), prefix) != 0 ||
        span.id.find('.', prefix.size()) != std::string::npos) {
      failures += Problem(lines[i], span.id,
                          "id is not parent id '" + span.parent +
                              "' plus one ordinal");
    }
    if (span.start_ns < parent.start_ns) {
      failures += Problem(lines[i], span.id, "starts before its parent");
    }
  }
  if (roots == 0) {
    std::cerr << "trace_check: no root spans\n";
    ++failures;
  }

  // Cross-process reconciliation: a stitched server subtree's measured
  // phase work must fit inside the client-side attempt span it hangs
  // under. 1% + per-span %.3f slack, plus a small absolute allowance for
  // the server's own span bookkeeping between phases.
  size_t servers = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& span = spans[i];
    if (span.name != "server") continue;
    ++servers;
    if (span.parent.empty()) continue;  // server-side export, unstitched
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) continue;  // already flagged as dangling above
    const SpanRec& attempt = spans[it->second];
    double sum = 0;
    size_t n = 0;
    for (const SpanRec& s : spans) {
      if (s.parent != span.id) continue;
      if (s.name.compare(0, 6, "phase:") != 0) continue;
      const std::string* ms = s.Find("ms");
      if (ms == nullptr) continue;
      sum += std::strtod(ms->c_str(), nullptr);
      ++n;
    }
    double tolerance = 0.01 * attempt.duration_ms +
                       0.001 * static_cast<double>(n + 1) + 0.5;
    if (sum > attempt.duration_ms + tolerance) {
      failures += Problem(
          lines[i], span.id,
          "server phase spans sum to " + std::to_string(sum) +
              " ms, exceeding the client attempt span's " +
              std::to_string(attempt.duration_ms) + " ms");
    }
  }

  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "plan") continue;
    ++plans;
    if (!CheckPhaseSum(spans[i], spans, "phase:plan", "plan_ms", lines[i])) {
      ++failures;
    }
    if (!CheckPhaseSum(spans[i], spans, "phase:query", "query_ms", lines[i])) {
      ++failures;
    }
    if (!CheckPhaseSum(spans[i], spans, "phase:bind", "bind_ms", lines[i])) {
      ++failures;
    }
    if (!CheckPhaseSum(spans[i], spans, "phase:tag", "tag_ms", lines[i])) {
      ++failures;
    }
  }

  if (failures > 0) {
    std::cerr << "trace_check: " << failures << " problem(s) in "
              << spans.size() << " span(s)\n";
    return 1;
  }
  std::cout << "trace ok: " << spans.size() << " span(s), " << roots
            << " root(s), " << plans << " plan(s), " << servers
            << " server subtree(s)\n";
  return 0;
}
