// `republish`: one client and one ResultCache in a closed loop. Steps
// alternate: a write step inserts one new row through the checked
// Table::Insert and then republishes (only the components naming the dirty
// table re-execute, but the whole document is re-tagged); a hit step
// republishes with no write and is served from the document cache.
//
// The rows written are fresh-key rows copied from existing rows of tables
// whose new keys nothing references yet (Region, Nation, Part, Customer,
// Orders), so every foreign key stays valid and the document itself does
// not change. Rows of Supplier, PartSupp or LineItem would add elements to
// the document; the fragment cache keys a component only on the tables it
// introduces, so such a write leaves descendant fragments stale and the
// cached document would differ from a cold publish.
#include <sstream>

#include "engine/result_cache.h"
#include "silkroute/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = silkroute::core;
namespace engine = silkroute::engine;

constexpr double kWarmupCapS = 5;

/// One table the write steps insert into: existing rows to copy from, and
/// the next fresh value of its single-column integer primary key.
struct WriteTarget {
  std::string table;
  std::vector<silkroute::Tuple> rows;
  int64_t next_key = 0;
};

class Republish : public Workload {
 public:
  void Setup() override {
    publisher_.reset();
    db_ = MakeConfigA();
    publisher_ = std::make_unique<core::Publisher>(db_.get());
  }

  Report Run(const RunConfig& config) override;

 private:
  struct Samples {
    std::vector<double> republish_ms;
    /// Republish latency by the table the write step wrote.
    std::vector<std::vector<double>> by_table;
    std::vector<double> hit_ms;
    std::vector<double> insert_us;
    std::vector<core::PlanMetrics> republish_metrics;
    size_t checkpoints = 0;
  };

  void LoadTargets();
  /// Publishes once; `*digest` is the document's, checked by the caller.
  bool PublishOnce(const core::PublishOptions& options, double* ms,
                   core::PlanMetrics* metrics, uint64_t* digest);
  /// Inserts one fresh row into the next table of a seeded round over all
  /// targets (equal shares keep the latency mix the same on every seed);
  /// false if Insert refused it. `*target` is the table's index and
  /// [*begin, *end] the Insert call on the recorder's clock.
  bool WriteRow(Rng* rng, size_t* target, double* begin, double* end);
  /// Alternating write and hit steps until `seconds` of steps have run.
  void Loop(Rng* rng, double seconds, bool traced, Samples* samples,
            Report* report);
  /// Outside the timed region: the cached document must equal a cold,
  /// uncached publish of the same database state. A traced run also
  /// re-runs the staged pipeline there, for the decode/tag split.
  void Checkpoint(uint64_t cached_digest, bool traced, Report* report);

  std::unique_ptr<silkroute::Database> db_;
  std::unique_ptr<core::Publisher> publisher_;
  const std::string rxl_{core::Query1Rxl()};
  std::vector<WriteTarget> targets_;
  std::vector<size_t> round_;  // targets left in the current round
  std::unique_ptr<engine::ResultCache> cache_;
  std::unique_ptr<engine::DatabaseExecutor> db_executor_;
  std::unique_ptr<TimedExecutor> executor_;
  core::PublishOptions options_;
  double checking_ms_ = 0;
  MachineGauge* gauge_ = nullptr;

  SpanRecorder recorder_;
  uint64_t requests_ = 0;
  SpanRecorder staged_recorder_;
  LayerCounters staged_counters_;
  size_t staged_requests_ = 0;
};

void Republish::LoadTargets() {
  for (const char* table : {"Region", "Nation", "Part", "Customer", "Orders"}) {
    WriteTarget target;
    target.table = table;
    target.rows = QueryRows(*db_, std::string("SELECT * FROM ") + table);
    for (const silkroute::Tuple& row : target.rows) {
      target.next_key = std::max(target.next_key, row[0].AsInt64() + 1);
    }
    targets_.push_back(std::move(target));
  }
}

bool Republish::PublishOnce(const core::PublishOptions& options, double* ms,
                            core::PlanMetrics* metrics, uint64_t* digest) {
  std::ostringstream out;
  Clock::time_point start = Clock::now();
  auto result = publisher_->Publish(rxl_, options, &out);
  *ms = MsBetween(start, Clock::now());
  *digest = Digest(out.view());
  if (!result.ok()) return false;
  *metrics = result->metrics;
  return true;
}

bool Republish::WriteRow(Rng* rng, size_t* target_index, double* begin,
                         double* end) {
  if (round_.empty()) {
    for (size_t i = 0; i < targets_.size(); ++i) round_.push_back(i);
    rng->Shuffle(&round_);
  }
  *target_index = round_.back();
  WriteTarget& target = targets_[round_.back()];
  round_.pop_back();
  silkroute::Tuple row = target.rows[rng->Below(target.rows.size())];
  row[0] = silkroute::Value::Int64(target.next_key++);
  auto table = db_->GetTable(target.table);
  *begin = *end = recorder_.Now();
  if (!table.ok()) return false;
  silkroute::Status inserted = (*table)->Insert(std::move(row));
  *end = recorder_.Now();
  return inserted.ok();
}

void Republish::Checkpoint(uint64_t cached_digest, bool traced,
                           Report* report) {
  Clock::time_point start = Clock::now();
  core::PublishOptions cold = options_;
  cold.result_cache = nullptr;
  cold.executor = nullptr;
  double ms = 0;
  core::PlanMetrics metrics;
  uint64_t cold_digest = 0;
  ++report->attempted;
  if (!PublishOnce(cold, &ms, &metrics, &cold_digest) ||
      cold_digest != cached_digest) {
    report->Fail("cached republish differs from a cold publish");
  }
  if (traced) {
    uint64_t request = ++staged_requests_;
    std::string xml;
    double begin = staged_recorder_.Now();
    int root = staged_recorder_.Add("request", begin, begin, -1, request);
    bool ok = RunStaged(*db_, publisher_->estimator(), rxl_, cold,
                        &staged_recorder_, root, request, &staged_counters_,
                        &xml);
    staged_recorder_.Close(root, staged_recorder_.Now());
    ++report->attempted;
    if (!ok || Digest(xml) != cached_digest) {
      report->Fail("staged pipeline differs from the cached republish");
    }
  }
  checking_ms_ += MsBetween(start, Clock::now());
}

void Republish::Loop(Rng* rng, double seconds, bool traced, Samples* samples,
                     Report* report) {
  Clock::time_point start = Clock::now();
  double checked_before = checking_ms_;
  samples->by_table.resize(targets_.size());
  do {
    // Write step.
    uint64_t request = ++requests_;
    size_t table = 0;
    double insert_begin = 0, insert_end = 0;
    ++report->attempted;
    if (!WriteRow(rng, &table, &insert_begin, &insert_end)) {
      report->Fail("Table::Insert refused a fresh row");
    }
    double ms = 0;
    core::PlanMetrics metrics;
    uint64_t digest = 0;
    double publish_begin = recorder_.Now();
    bool ok = PublishOnce(options_, &ms, &metrics, &digest);
    ++report->attempted;
    // A write changes the version vector, so a document hit here would be
    // a stale document.
    if (!ok || metrics.served_from_doc_cache) {
      report->Fail("republish after a write failed or hit the document cache");
    }
    if (traced) {
      double end = recorder_.Now();
      int root = recorder_.Add("request", insert_begin, end, -1, request);
      recorder_.Add("relational.insert", insert_begin, insert_end, root,
                    request);
      recorder_.Add("publish", publish_begin, end, root, request);
    }
    samples->insert_us.push_back((insert_end - insert_begin) * 1000.0);
    samples->republish_ms.push_back(ms);
    samples->by_table[table].push_back(ms);
    samples->republish_metrics.push_back(metrics);
    bool checkpoint = rng->Below(8) == 0 || (traced && samples->checkpoints == 0);
    if (checkpoint) {
      ++samples->checkpoints;
      Checkpoint(digest, traced, report);
    }

    // Hit step: nothing changed since the write step's publish.
    uint64_t hit_digest = 0;
    ok = PublishOnce(options_, &ms, &metrics, &hit_digest);
    ++report->attempted;
    // Served from the document cache unless cache pressure evicted it;
    // either way the bytes must not change.
    if (!ok || hit_digest != digest) {
      report->Fail("republish with no write changed the document");
    }
    samples->hit_ms.push_back(ms);
    gauge_->MaybeSample();
  } while (MsBetween(start, Clock::now()) - (checking_ms_ - checked_before) <
           seconds * 1000.0);
}

Report Republish::Run(const RunConfig& config) {
  Report report;
  gauge_ = config.gauge;
  LoadTargets();
  cache_ = std::make_unique<engine::ResultCache>(
      engine::ResultCache::Options{64ull << 20, 8, nullptr});
  db_executor_ = std::make_unique<engine::DatabaseExecutor>(db_.get());
  executor_ =
      std::make_unique<TimedExecutor>(db_executor_.get(), db_executor_.get());
  // Fully partitioned: one component per view-tree node, so a write dirties
  // the fewest rows of query work and the most fragments are spliced.
  options_.strategy = core::PlanStrategy::kFullyPartitioned;
  options_.document_element = "suppliers";
  options_.result_cache = cache_.get();
  options_.executor = executor_.get();
  Rng rng(SubSeed(config.seed, "republish.steps"));

  // Warm-up, untimed: steps until the cache is full and evicting, the
  // steady state of a long-running republisher, or at most kWarmupCapS.
  Clock::time_point warm_start = Clock::now();
  Samples warm;
  do {
    Loop(&rng, 0, false, &warm, &report);
  } while (cache_->stats().evictions == 0 &&
           MsBetween(warm_start, Clock::now()) < kWarmupCapS * 1000);
  report.detail.push_back(
      {"warmup_s", MsBetween(warm_start, Clock::now()) / 1000, "s"});

  Samples samples;
  Loop(&rng, config.trace ? config.seconds / 2 : config.seconds, false,
       &samples, &report);
  Tail tail = TailOf(samples.republish_ms);
  // The table a step wrote decides which components re-execute and moves
  // its latency up to 2x: the tables are the request classes.
  report.p25_ms = MeanOfQuantiles(samples.by_table, 0.25);
  report.aux_p25_ms = Quantile(samples.hit_ms, 0.25);
  report.detail.push_back(
      {"republish_p50_ms", MeanOfQuantiles(samples.by_table, 0.5), "ms"});
  AddTail("republish_tail_ms", tail, &report.detail);
  report.detail.push_back({"doc_hit_p50_ms", Median(samples.hit_ms), "ms"});
  report.detail.push_back({"insert_p50_us", Median(samples.insert_us), "us"});
  report.detail.push_back(
      {"checkpoints", static_cast<double>(samples.checkpoints), "count"});

  if (!config.trace) return report;

  engine::ResultCache::Stats before = cache_->stats();
  executor_->TakeTotals();
  executor_->set_recording(true);
  Samples traced;
  Loop(&rng, config.seconds / 2, true, &traced, &report);
  executor_->set_recording(false);
  engine::ResultCache::Stats after = cache_->stats();
  TimedExecutor::Totals exec = executor_->TakeTotals();

  // The staged checkpoints give the planning layers and the decode of the
  // whole document, which every republish pays again in its tag phase.
  std::map<std::string, double> staged;
  AddStagedLayers(staged_recorder_.spans(), staged_requests_, staged_counters_,
                  &staged);
  double steps = static_cast<double>(traced.republish_ms.size());
  double query = 0, bind = 0, tag = 0, wire = 0, instances = 0, xml = 0,
         flushes = 0, executed = 0, components = 0;
  for (const core::PlanMetrics& m : traced.republish_metrics) {
    query += m.query_ms;
    bind += m.bind_ms;
    tag += m.tag_ms;
    wire += static_cast<double>(m.wire_bytes);
    instances += static_cast<double>(m.tagger.instances_emitted);
    xml += static_cast<double>(m.xml_bytes);
    flushes += static_cast<double>(m.xml_flushes);
    executed += static_cast<double>(m.cache_misses);
    components += static_cast<double>(m.num_streams);
  }
  auto& layers = report.layers;
  for (const char* name : {"rxl.parse_ms", "silkroute.view_tree_ms",
                           "silkroute.greedy_ms", "silkroute.oracle_requests",
                           "silkroute.sqlgen_ms", "engine.decode_ms"}) {
    layers[name] = staged[name];
  }
  // Only the re-executed components parse SQL.
  layers["sql.parse_ms"] =
      staged["sql.parse_ms"] * (components > 0 ? executed / components : 0);
  layers["engine.execute_ms"] = query / steps;
  layers["engine.bind_ms"] = bind / steps;
  layers["silkroute.merge_emit_ms"] = tag / steps - staged["engine.decode_ms"];
  layers["engine.rows_scanned"] = exec.exec.rows_scanned / steps;
  layers["engine.rows_joined"] = exec.exec.rows_joined / steps;
  layers["engine.rows_sorted"] = exec.exec.rows_sorted / steps;
  layers["engine.keys_encoded"] = exec.exec.keys_encoded / steps;
  layers["engine.wire_bytes"] = wire / steps;
  layers["silkroute.instances_emitted"] = instances / steps;
  layers["xml.bytes"] = xml / steps;
  layers["xml.flushes"] = flushes / steps;
  double lookups = static_cast<double>((after.hits - before.hits) +
                                       (after.misses - before.misses));
  layers["engine.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups
                  : 0;
  layers["engine.cache_splices"] =
      static_cast<double>(after.splices - before.splices) / steps;
  layers["engine.cache_resident_bytes"] =
      static_cast<double>(after.resident_bytes);
  layers["engine.cache_evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  std::map<std::string, double> self =
      SelfTimePerRequest(recorder_.spans(), traced.republish_ms.size());
  layers["relational.insert_us"] = self["relational.insert"] * 1000.0;
  layers["relational.table_bytes"] = static_cast<double>(db_->TotalByteSize());
  layers["bench.trace_overhead_pct"] =
      100.0 * (MeanOfQuantiles(traced.by_table, 0.25) / report.p25_ms - 1.0);
  report.spans = recorder_.spans();
  std::vector<SpanRecord> staged_spans = staged_recorder_.spans();
  report.spans.insert(report.spans.end(), staged_spans.begin(),
                      staged_spans.end());
  return report;
}

}  // namespace

std::unique_ptr<Workload> MakeRepublish() {
  return std::make_unique<Republish>();
}

}  // namespace perfbench
