// Byte-identity tests for the published XML. The packed-key hot path, the
// borrowed/fused executor plans, and the buffered writer are pure
// optimizations: every plan in the edge-mask lattice must emit exactly the
// bytes the unoptimized pipeline emitted (goldens checked in from the seed
// build), serially and through the concurrent PublishingService.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "relational/database.h"
#include "service/publishing_service.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "sql/ddl.h"
#include "tests/test_util.h"

namespace silkroute::core {
namespace {

namespace testutil = core::testutil;

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string GoldenPath(const std::string& name) {
  return std::string(SILK_TEST_SOURCE_DIR) + "/golden/" + name;
}

std::string DemoPath(const std::string& name) {
  return std::string(SILK_TEST_SOURCE_DIR) + "/../examples/demo/" + name;
}

/// Loads examples/demo exactly the way the CLI does (DDL + per-table CSVs).
void LoadDemo(Database* db) {
  auto created = sql::ExecuteDdl(ReadFileOrDie(DemoPath("schema.sql")), db);
  ASSERT_TRUE(created.ok()) << created.status();
  for (const std::string& table : db->catalog().TableNames()) {
    std::string path = DemoPath(table + ".csv");
    std::ifstream probe(path);
    if (!probe.is_open()) continue;
    auto loaded = LoadCsvFile(path, CsvLoadOptions{}, table, db);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
  }
}

std::string PublishSerial(Publisher* publisher, const std::string& rxl,
                          const PublishOptions& options) {
  std::ostringstream out;
  auto result = publisher->Publish(rxl, options, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  return out.str();
}

// The demo league document must match the golden produced by
// `silkroute --schema schema.sql --view view.rxl --root league`.
TEST(GoldenXmlTest, DemoLeagueMatchesGolden) {
  Database db;
  LoadDemo(&db);
  Publisher publisher(&db);
  PublishOptions options;
  options.document_element = "league";
  std::string xml =
      PublishSerial(&publisher, ReadFileOrDie(DemoPath("view.rxl")), options);
  EXPECT_EQ(xml, ReadFileOrDie(GoldenPath("demo_league.xml")));
}

// Every edge mask of the demo view's (small) lattice must emit the same
// bytes: partitioning is a physical choice, never a semantic one.
TEST(GoldenXmlTest, DemoLatticeIsByteIdentical) {
  Database db;
  LoadDemo(&db);
  Publisher publisher(&db);
  const std::string rxl = ReadFileOrDie(DemoPath("view.rxl"));
  auto tree = publisher.BuildViewTree(rxl);
  ASSERT_TRUE(tree.ok()) << tree.status();
  const uint64_t full = (uint64_t{1} << tree->num_edges()) - 1;

  PublishOptions options;
  options.document_element = "league";
  std::string reference;
  for (uint64_t mask = 0; mask <= full; ++mask) {
    std::ostringstream out;
    auto metrics = publisher.ExecutePlan(*tree, mask, options, &out);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    if (mask == 0) {
      reference = out.str();
      EXPECT_EQ(reference, ReadFileOrDie(GoldenPath("demo_league.xml")));
    } else {
      EXPECT_EQ(out.str(), reference) << "mask 0x" << std::hex << mask;
    }
  }
}

// The TPC-H Query 1 document at scale 0.002 for the mask the greedy
// planner favors, against the seed golden.
TEST(GoldenXmlTest, Query1MatchesGolden) {
  auto db = testutil::MakeTinyTpch();
  Publisher publisher(db.get());
  auto tree = publisher.BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok()) << tree.status();
  PublishOptions options;
  std::ostringstream out;
  auto metrics = publisher.ExecutePlan(*tree, 0x1E8, options, &out);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(out.str(), ReadFileOrDie(GoldenPath("query1_scale0002.xml")));
}

// Sampled masks across Query 1's lattice, published serially and through
// the PublishingService with 8 workers: all byte-identical to the serial
// unified plan. This is the acceptance gate for the whole hot path — the
// pooled execution strategy reorders component *execution*, never bytes.
TEST(GoldenXmlTest, Query1LatticeSerialAndConcurrentAreByteIdentical) {
  auto db = testutil::MakeTinyTpch();
  Publisher publisher(db.get());
  auto tree = publisher.BuildViewTree(Query1Rxl());
  ASSERT_TRUE(tree.ok()) << tree.status();
  const uint64_t full = (uint64_t{1} << tree->num_edges()) - 1;
  std::vector<uint64_t> masks = {0, full, 0x1E8 & full, 0x155 & full,
                                 0x0AA & full, 0x013 & full};

  PublishOptions base;
  // Serial reference from the unified (all-edges) plan.
  std::string reference;
  {
    std::ostringstream out;
    auto metrics = publisher.ExecutePlan(*tree, full, base, &out);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    reference = out.str();
  }
  EXPECT_EQ(reference, ReadFileOrDie(GoldenPath("query1_scale0002.xml")));

  // Every sampled mask, serially.
  for (uint64_t mask : masks) {
    std::ostringstream out;
    auto metrics = publisher.ExecutePlan(*tree, mask, base, &out);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(out.str(), reference) << "serial mask 0x" << std::hex << mask;
  }

  // Every sampled mask, concurrently: one in-flight request per mask over
  // an 8-worker pool.
  service::ServiceOptions service_options;
  service_options.workers = 8;
  service_options.admission.max_pending_requests = masks.size() + 1;
  service::PublishingService svc(db.get(), service_options);
  std::vector<service::ServiceRequest> requests;
  for (uint64_t mask : masks) {
    service::ServiceRequest req;
    req.rxl = std::string(Query1Rxl());
    req.options = base;
    req.options.strategy = PlanStrategy::kExplicitMask;
    req.options.explicit_mask = mask;
    requests.push_back(std::move(req));
  }
  std::vector<service::ServiceResponse> responses =
      svc.PublishAll(std::move(requests));
  ASSERT_EQ(responses.size(), masks.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << "mask 0x" << std::hex << masks[i] << ": " << responses[i].status;
    EXPECT_EQ(responses[i].xml, reference)
        << "concurrent mask 0x" << std::hex << masks[i];
  }
}

}  // namespace
}  // namespace silkroute::core
