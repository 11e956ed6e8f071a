#include "harness.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Exponential(double rate) {
  // 1 - Unit() lies in (0, 1], so the log is finite.
  return -std::log(1.0 - Unit()) / rate;
}

uint64_t SubSeed(uint64_t seed, std::string_view purpose) {
  Rng rng(seed ^ Digest(purpose));
  return rng.Next();
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  std::vector<double> out;
  Rng rng(seed);
  for (double t = rng.Exponential(rate); t < seconds;
       t += rng.Exponential(rate)) {
    out.push_back(t);
  }
  return out;
}

std::vector<size_t> Choices(uint64_t seed, size_t n, size_t count) {
  Rng rng(seed);
  std::vector<size_t> out(count);
  for (size_t& c : out) c = rng.Below(n);
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double MeanOfQuantiles(const std::vector<std::vector<double>>& classes,
                       double q) {
  double sum = 0;
  size_t n = 0;
  for (const std::vector<double>& c : classes) {
    if (c.empty()) continue;
    sum += Quantile(c, q);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

Tail TailOf(std::vector<double> values, size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  size_t index = n > min_beyond ? n - 1 - min_beyond : n - 1;
  tail.value = values[index];
  tail.beyond = n - 1 - index;
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

int SpanRecorder::Add(std::string name, double start_ms, double end_ms,
                      int parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      SpanRecord{std::move(name), start_ms, end_ms, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::Close(int index, double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ms = end_ms;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
    double lo = std::max(s.start_ms, p.start_ms);
    double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, spans[i].end_ms - spans[i].start_ms - covered);
  }
  return self;
}

std::map<std::string, double> SelfTimePerRequest(
    const std::vector<SpanRecord>& spans, size_t requests) {
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  if (requests > 0) {
    for (auto& [name, ms] : out) ms /= static_cast<double>(requests);
  }
  return out;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  std::vector<double> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "\"start_ms\": %.6f, \"end_ms\": %.6f, \"self_ms\": %.6f, "
                  "\"parent\": %d, \"request\": %llu}\n",
                  s.start_ms, s.end_ms, self[i], s.parent,
                  static_cast<unsigned long long>(s.request));
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", " << line;
  }
  return static_cast<bool>(out);
}

double ReferenceTaskMs() {
  Clock::time_point start = Clock::now();
  Rng rng(20010521);
  std::vector<std::string> words;
  words.reserve(60000);
  for (size_t i = 0; i < 60000; ++i) {
    words.emplace_back(16 + rng.Below(32), static_cast<char>('a' + rng.Below(26)));
    words.back()[rng.Below(words.back().size())] = static_cast<char>('a' + rng.Below(26));
  }
  std::sort(words.begin(), words.end());
  std::unordered_map<std::string, size_t> counts;
  std::string joined;
  for (const std::string& w : words) {
    ++counts[w];
    joined += w;
  }
  volatile uint64_t sink = Digest(joined) + counts.size();
  (void)sink;
  return MsBetween(start, Clock::now());
}

void MachineGauge::MaybeSample() {
  Clock::time_point now = Clock::now();
  if (!samples_.empty() && MsBetween(last_, now) < kIntervalMs) return;
  samples_.push_back(ReferenceTaskMs());
  last_ = Clock::now();
}

double MachineGauge::Factor() const {
  return samples_.empty() ? 1.0 : ReferenceMs() / kNominalMs;
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void AddTail(const std::string& name, const Tail& tail,
             std::vector<Metric>* detail) {
  detail->push_back({name, tail.value, "ms"});
  detail->push_back({name + ".percentile", tail.percentile, "%"});
  detail->push_back(
      {name + ".samples", static_cast<double>(tail.samples), "count"});
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char number[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << number << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
