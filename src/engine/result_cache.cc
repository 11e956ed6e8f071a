#include "engine/result_cache.h"

#include <algorithm>
#include <functional>

#include "engine/key_codec.h"
#include "relational/value.h"

namespace silkroute::engine {

namespace {

/// Fixed per-entry overhead charged against the budget: list node, map
/// slot, shared_ptr control block. An estimate — the budget bounds order
/// of magnitude, not malloc bytes.
constexpr size_t kEntryOverhead = 128;

/// One packed key from a namespace byte, a text segment, and the version
/// vector. EncodeValue's segments are self-delimiting (DESIGN.md §10), so
/// (text, t1, v1, t2, v2, ...) tuples can never collide across segment
/// boundaries, and two keys are byte-equal iff every part matches.
std::string PackKey(char space, std::string_view text,
                    const TableVersionVector& versions) {
  std::string key;
  key.reserve(1 + text.size() + versions.size() * 24 + 16);
  key.push_back(space);
  EncodeValue(Value::String(std::string(text)), &key);
  for (const auto& [table, version] : versions) {
    EncodeValue(Value::String(table), &key);
    EncodeValue(Value::Int64(static_cast<int64_t>(version)), &key);
  }
  return key;
}

}  // namespace

size_t CacheEntry::ByteSize() const {
  size_t total = bytes != nullptr ? bytes->size() : 0;
  if (row_index != nullptr) total += row_index->size() * sizeof(uint64_t);
  for (const auto& col : schema.columns()) {
    total += col.qualifier.size() + col.name.size() + 8;
  }
  for (const auto& [name, value] : counters) {
    (void)value;
    total += name.size() + 16;
  }
  return total;
}

ResultCache::ResultCache(Options options)
    : options_(options),
      shard_budget_(options.budget_bytes /
                    std::max<size_t>(1, options.shards)) {
  size_t n = std::max<size_t>(1, options_.shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics;
    m_hits_ = reg->counter("silkroute_cache_hits_total");
    m_misses_ = reg->counter("silkroute_cache_misses_total");
    m_evictions_ = reg->counter("silkroute_cache_evictions_total");
    m_bytes_ = reg->counter("silkroute_cache_bytes_total");
    m_splices_ = reg->counter("silkroute_cache_splices_total");
    m_resident_ = reg->gauge("silkroute_cache_resident_bytes");
    m_entries_ = reg->gauge("silkroute_cache_entries");
  }
}

std::string ResultCache::FragmentKey(std::string_view normalized_sql,
                                     const TableVersionVector& versions) {
  return PackKey('F', normalized_sql, versions);
}

std::string ResultCache::DocumentKey(std::string_view plan_fingerprint,
                                     const TableVersionVector& versions) {
  return PackKey('D', plan_fingerprint, versions);
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  size_t h = std::hash<std::string>()(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const CacheEntry> ResultCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(key));
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (m_misses_ != nullptr) m_misses_->Add(1);
    return nullptr;
  }
  auto node = it->second;
  if (node->freq < 255) ++node->freq;
  shard.lru.splice(shard.lru.begin(), shard.lru, node);
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (m_hits_ != nullptr) m_hits_->Add(1);
  return node->entry;
}

void ResultCache::Insert(const std::string& key, CacheEntry entry) {
  size_t bytes = key.size() + entry.ByteSize() + kEntryOverhead;
  if (bytes > shard_budget_) {
    // Admission control: an entry bigger than a whole shard would only be
    // admitted by evicting everything else — not worth it.
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  Shard& shard = ShardFor(key);
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      // Replace in place (same key, refreshed payload — e.g. a re-publish
      // racing another coordinator on the same version vector).
      auto node = it->second;
      shard.resident_bytes -= node->bytes;
      shard.resident_bytes += bytes;
      if (m_resident_ != nullptr) {
        m_resident_->Add(static_cast<int64_t>(bytes) -
                         static_cast<int64_t>(node->bytes));
      }
      node->entry = std::move(shared);
      node->bytes = bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, node);
    } else {
      shard.lru.push_front(Node{key, std::move(shared), bytes, 0});
      shard.index.emplace(std::string_view(shard.lru.front().key),
                          shard.lru.begin());
      shard.resident_bytes += bytes;
      if (m_resident_ != nullptr) m_resident_->Add(static_cast<int64_t>(bytes));
      if (m_entries_ != nullptr) m_entries_->Add(1);
    }
    // Evict from the cold tail until back under budget. A tail entry hit
    // since its last scan gets a second chance (frequency halves, moves to
    // the front); each pass strictly decreases total frequency, so the
    // loop terminates.
    while (shard.resident_bytes > shard_budget_ && !shard.lru.empty()) {
      Node& tail = shard.lru.back();
      if (tail.freq > 1 && &tail != &shard.lru.front()) {
        tail.freq /= 2;
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         std::prev(shard.lru.end()));
        continue;
      }
      shard.resident_bytes -= tail.bytes;
      if (m_resident_ != nullptr) {
        m_resident_->Add(-static_cast<int64_t>(tail.bytes));
      }
      if (m_entries_ != nullptr) m_entries_->Add(-1);
      shard.index.erase(std::string_view(tail.key));
      shard.lru.pop_back();
      ++evicted;
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (m_bytes_ != nullptr) m_bytes_->Add(bytes);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (m_evictions_ != nullptr) m_evictions_->Add(evicted);
  }
}

void ResultCache::RecordSplices(uint64_t n) {
  if (n == 0) return;
  splices_.fetch_add(n, std::memory_order_relaxed);
  if (m_splices_ != nullptr) m_splices_->Add(n);
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  s.splices = splices_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.resident_bytes += shard->resident_bytes;
    s.entries += shard->lru.size();
  }
  return s;
}

}  // namespace silkroute::engine
