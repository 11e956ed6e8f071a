#include "silkroute/tagger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "engine/executor.h"
#include "silkroute/partition.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"
#include "xml/reader.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;
using testutil::MustBuildTree;

class TaggerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTinyTpch().release();
    tree_ = new ViewTree(MustBuildTree(Query1Rxl(), db_->catalog()));
  }
  static void TearDownTestSuite() {
    delete tree_;
    delete db_;
    tree_ = nullptr;
    db_ = nullptr;
  }

  /// Generates and executes one plan's streams.
  static void BindPlan(
      uint64_t mask, SqlGenStyle style, bool reduce,
      std::vector<StreamSpec>* specs,
      std::vector<std::unique_ptr<engine::TupleStream>>* streams) {
    auto plan = Partition::FromMask(*tree_, mask);
    EXPECT_TRUE(plan.ok());
    SqlGenerator gen(tree_, style, reduce);
    auto generated = gen.GeneratePlan(*plan);
    EXPECT_TRUE(generated.ok()) << generated.status();
    *specs = std::move(generated).value();
    for (const auto& spec : *specs) {
      engine::QueryExecutor exec(db_);
      auto rel = exec.ExecuteSql(spec.sql);
      EXPECT_TRUE(rel.ok()) << spec.sql << "\n" << rel.status();
      streams->push_back(
          std::make_unique<engine::TupleStream>(std::move(rel).value()));
    }
  }

  /// Runs the full generate/execute/tag pipeline for one plan; returns the
  /// XML and exposes the tagger stats through `stats`.
  std::string RunPlan(uint64_t mask, SqlGenStyle style, bool reduce,
                      TaggerStats* stats) {
    std::vector<StreamSpec> specs;
    std::vector<std::unique_ptr<engine::TupleStream>> streams;
    BindPlan(mask, style, reduce, &specs, &streams);
    std::ostringstream out;
    xml::XmlWriter writer(&out);
    Tagger tagger(tree_, &writer, Tagger::Options{"suppliers"});
    std::vector<Tagger::StreamInput> inputs;
    for (size_t i = 0; i < specs.size(); ++i) {
      inputs.push_back({&specs[i], streams[i].get()});
    }
    Status s = tagger.Run(std::move(inputs));
    EXPECT_TRUE(s.ok()) << s;
    EXPECT_TRUE(writer.Finish().ok());
    if (stats != nullptr) *stats = tagger.stats();
    return out.str();
  }

  static Database* db_;
  static ViewTree* tree_;
};

Database* TaggerTest::db_ = nullptr;
ViewTree* TaggerTest::tree_ = nullptr;

TEST_F(TaggerTest, EmitsWellFormedXml) {
  TaggerStats stats;
  std::string xml = RunPlan(0, SqlGenStyle::kOuterJoin, false, &stats);
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->name, "suppliers");
  EXPECT_GT((*doc)->NumChildren(), 0u);
}

TEST_F(TaggerTest, NoForcedAncestorOpens) {
  for (uint64_t mask : {uint64_t{0}, uint64_t{511}, uint64_t{0x1E8}}) {
    TaggerStats stats;
    RunPlan(mask, SqlGenStyle::kOuterJoin, true, &stats);
    EXPECT_EQ(stats.forced_ancestor_opens, 0u) << mask;
  }
}

TEST_F(TaggerTest, BufferedInstancesBoundedByViewTreeSize) {
  // The constant-memory property (paper Sec. 3.3): buffering depends only
  // on the view tree (one tuple per stream plus one captured instance per
  // node), never on the database size.
  for (uint64_t mask : {uint64_t{0}, uint64_t{511}, uint64_t{0x1E8}}) {
    TaggerStats stats;
    RunPlan(mask, SqlGenStyle::kOuterJoin, false, &stats);
    EXPECT_GE(stats.peak_buffered_tuples, 1u) << mask;
    EXPECT_LE(stats.peak_buffered_tuples, tree_->num_nodes()) << mask;
  }
}

TEST_F(TaggerTest, MaxDepthMatchesViewTree) {
  TaggerStats stats;
  RunPlan(511, SqlGenStyle::kOuterJoin, true, &stats);
  // suppliers wrapper is not on the tagger's stack; depth = tree depth.
  EXPECT_EQ(stats.max_open_depth, 4u);
}

TEST_F(TaggerTest, OuterJoinPlansSkipRepeatedParents) {
  TaggerStats stats;
  RunPlan(511, SqlGenStyle::kOuterJoin, false, &stats);
  EXPECT_GT(stats.duplicates_skipped, 0u);
}

TEST_F(TaggerTest, InstanceCountIndependentOfPlan) {
  TaggerStats a, b, c;
  RunPlan(0, SqlGenStyle::kOuterJoin, false, &a);
  RunPlan(511, SqlGenStyle::kOuterUnion, true, &b);
  RunPlan(0x35, SqlGenStyle::kOuterJoin, true, &c);
  EXPECT_EQ(a.instances_emitted, b.instances_emitted);
  EXPECT_EQ(a.instances_emitted, c.instances_emitted);
}

TEST_F(TaggerTest, SupplierContentsCompleteAndOrdered) {
  std::string xml = RunPlan(0x1E8, SqlGenStyle::kOuterJoin, true, nullptr);
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  auto suppliers = (*doc)->Children("supplier");
  auto table = db_->GetTable("Supplier");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(suppliers.size(), (*table)->num_rows());
  for (const auto* s : suppliers) {
    ASSERT_GE(s->NumChildren(), 3u);
    EXPECT_EQ(s->children[0]->name, "name");
    EXPECT_EQ(s->children[1]->name, "nation");
    EXPECT_EQ(s->children[2]->name, "region");
    for (size_t i = 3; i < s->NumChildren(); ++i) {
      EXPECT_EQ(s->children[i]->name, "part");
    }
    EXPECT_FALSE(s->children[0]->text.empty());
  }
}

TEST_F(TaggerTest, SuppliersSortedByKey) {
  // The merged document lists suppliers in key order (the global sort key
  // starts with v1_1 = suppkey). Supplier names embed the key.
  std::string xml = RunPlan(0, SqlGenStyle::kOuterJoin, false, nullptr);
  auto doc = xml::ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  auto suppliers = (*doc)->Children("supplier");
  std::string prev;
  for (const auto* s : suppliers) {
    std::string name = s->FirstChild("name")->text;
    EXPECT_LT(prev, name);
    prev = name;
  }
}

TEST_F(TaggerTest, RowsConsumedMatchesStreamSizes) {
  TaggerStats stats;
  RunPlan(0, SqlGenStyle::kOuterJoin, false, &stats);
  EXPECT_GT(stats.rows_consumed, 0u);
}

TEST_F(TaggerTest, WithoutDocumentElementEmitsForest) {
  // A single-supplier view without the wrapper: root element instances
  // follow each other; the reader then rejects it as multi-root, which is
  // exactly the forest semantics — so wrap a view whose root is unique.
  auto tree = MustBuildTree(
      "from Region $r where $r.regionkey = 0 construct "
      "<regions><region>$r.name</region></regions>",
      db_->catalog());
  SqlGenerator gen(&tree, SqlGenStyle::kOuterJoin, false);
  auto specs = gen.GeneratePlan(Partition::Unified(tree));
  ASSERT_TRUE(specs.ok());
  engine::QueryExecutor exec(db_);
  auto rel = exec.ExecuteSql((*specs)[0].sql);
  ASSERT_TRUE(rel.ok());
  engine::TupleStream stream(std::move(rel).value());
  std::ostringstream out;
  xml::XmlWriter writer(&out);
  Tagger tagger(&tree, &writer, Tagger::Options{});
  ASSERT_TRUE(tagger.Run({{&(*specs)[0], &stream}}).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto doc = xml::ParseXml(out.str());
  ASSERT_TRUE(doc.ok()) << out.str();
  EXPECT_EQ((*doc)->name, "regions");
  EXPECT_EQ((*doc)->FirstChild("region")->text, "AFRICA");
}

TEST_F(TaggerTest, CorruptOrShortWireStreamIsAnError) {
  // A wire buffer cut short must fail the publish, not end the document
  // early: cut at half (a short stream) and one byte short of the end (a
  // truncated row).
  std::vector<StreamSpec> specs;
  std::vector<std::unique_ptr<engine::TupleStream>> streams;
  BindPlan(0x1E8, SqlGenStyle::kOuterJoin, true, &specs, &streams);
  const std::string& wire = *streams[0]->shared_wire();
  ASSERT_GT(streams[0]->num_tuples(), 1u);
  for (size_t cut : {wire.size() / 2, wire.size() - 1}) {
    engine::TupleStream shortened(
        streams[0]->schema(),
        std::make_shared<const std::string>(wire.substr(0, cut)),
        streams[0]->num_tuples());
    std::vector<Tagger::StreamInput> inputs{{&specs[0], &shortened}};
    for (size_t i = 1; i < specs.size(); ++i) {
      streams[i]->Rewind();
      inputs.push_back({&specs[i], streams[i].get()});
    }
    std::ostringstream out;
    xml::XmlWriter writer(&out);
    Tagger tagger(tree_, &writer, Tagger::Options{"suppliers"});
    Status s = tagger.Run(std::move(inputs));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << cut << ": " << s;
  }
}

TEST_F(TaggerTest, StatsPinnedAcrossPlans) {
  // Recorded from the value-vector tagger this one replaced; the packed-key
  // merge must reproduce every counter, not just the bytes.
  struct Expected {
    uint64_t mask;
    SqlGenStyle style;
    bool reduce;
    size_t emitted, rows, duplicates, depth, forced, peak;
  };
  const SqlGenStyle kOj = SqlGenStyle::kOuterJoin;
  const SqlGenStyle kOu = SqlGenStyle::kOuterUnion;
  const Expected kTable[] = {
      {0x0, kOj, false, 4980, 4980, 0, 4, 0, 1},
      {0x0, kOj, true, 4980, 4980, 0, 4, 0, 1},
      {0x0, kOu, false, 4980, 4980, 0, 4, 0, 1},
      {0x0, kOu, true, 4980, 4980, 0, 4, 0, 1},
      {0x35, kOj, false, 4980, 4890, 1205, 4, 0, 3},
      {0x35, kOj, true, 4980, 4824, 2278, 4, 0, 3},
      {0x35, kOu, false, 4980, 4980, 0, 4, 0, 3},
      {0x35, kOu, true, 4980, 4880, 0, 4, 0, 3},
      {0x1E8, kOj, false, 4980, 3720, 9519, 4, 0, 6},
      {0x1E8, kOj, true, 4980, 1330, 2349, 4, 0, 6},
      {0x1E8, kOu, false, 4980, 4980, 0, 4, 0, 6},
      {0x1E8, kOu, true, 4980, 1395, 0, 4, 0, 6},
      {0x1FF, kOj, false, 4980, 3695, 9660, 4, 0, 10},
      {0x1FF, kOj, true, 4980, 1220, 7118, 4, 0, 10},
      {0x1FF, kOu, false, 4980, 4980, 0, 4, 0, 10},
      {0x1FF, kOu, true, 4980, 1285, 0, 4, 0, 10},
  };
  for (const Expected& e : kTable) {
    TaggerStats stats;
    RunPlan(e.mask, e.style, e.reduce, &stats);
    SCOPED_TRACE(testing::Message()
                 << "mask " << e.mask << " style "
                 << SqlGenStyleToString(e.style) << " reduce " << e.reduce);
    EXPECT_EQ(stats.instances_emitted, e.emitted);
    EXPECT_EQ(stats.rows_consumed, e.rows);
    EXPECT_EQ(stats.duplicates_skipped, e.duplicates);
    EXPECT_EQ(stats.max_open_depth, e.depth);
    EXPECT_EQ(stats.forced_ancestor_opens, e.forced);
    EXPECT_EQ(stats.peak_buffered_tuples, e.peak);
    EXPECT_LE(stats.peak_buffered_tuples, tree_->num_nodes());
  }
}

/// Hand-built streams over a one-node view (`<region>` keyed by
/// regionkey, with the name as text), for merge edge cases the plan
/// lattice never produces.
class TaggerMergeTest : public TaggerTest {
 protected:
  void SetUp() override {
    tree_one_ = std::make_unique<ViewTree>(MustBuildTree(
        "from Region $r construct <region>$r.name</region>",
        db_->catalog()));
    SqlGenerator gen(tree_one_.get(), SqlGenStyle::kOuterJoin, false);
    auto specs = gen.GeneratePlan(Partition::Unified(*tree_one_));
    ASSERT_TRUE(specs.ok()) << specs.status();
    ASSERT_EQ(specs->size(), 1u);
    spec_ = (*specs)[0];
    engine::QueryExecutor exec(db_);
    auto rel = exec.ExecuteSql(spec_.sql);
    ASSERT_TRUE(rel.ok()) << rel.status();
    ASSERT_FALSE(rel->rows.empty());
    schema_ = rel->schema;
    template_row_ = rel->rows[0];
    const ViewTreeNode& node = tree_one_->node(tree_one_->root_id());
    for (const auto& arg : node.args) {
      if (!arg.identity) continue;
      auto col = schema_.Resolve("", arg.index.ColumnName());
      ASSERT_TRUE(col.ok());
      key_col_ = *col;
    }
    for (const auto& item : node.content) {
      if (item.kind != ViewTreeNode::ContentItem::Kind::kValue) continue;
      auto col = schema_.Resolve("", item.value.ColumnName());
      ASSERT_TRUE(col.ok());
      name_col_ = *col;
    }
    ASSERT_NE(key_col_, name_col_);
  }

  /// A stream of `(key, name)` rows in the executed query's shape.
  std::unique_ptr<engine::TupleStream> Stream(
      const std::vector<std::pair<Value, std::string>>& rows) {
    engine::Relation rel{schema_, {}};
    for (const auto& [key, name] : rows) {
      Tuple row = template_row_;
      row.mutable_values()[key_col_] = key;
      row.mutable_values()[name_col_] = Value::String(name);
      rel.rows.push_back(std::move(row));
    }
    return std::make_unique<engine::TupleStream>(std::move(rel));
  }

  /// Tags the streams in order; returns the <region> texts in document
  /// order.
  std::vector<std::string> Tag(
      const std::vector<engine::TupleStream*>& streams, TaggerStats* stats) {
    std::vector<Tagger::StreamInput> inputs;
    for (auto* stream : streams) inputs.push_back({&spec_, stream});
    std::ostringstream out;
    xml::XmlWriter writer(&out);
    Tagger tagger(tree_one_.get(), &writer, Tagger::Options{"regions"});
    Status s = tagger.Run(std::move(inputs));
    EXPECT_TRUE(s.ok()) << s;
    EXPECT_TRUE(writer.Finish().ok());
    if (stats != nullptr) *stats = tagger.stats();
    auto doc = xml::ParseXml(out.str());
    EXPECT_TRUE(doc.ok()) << out.str();
    std::vector<std::string> texts;
    if (!doc.ok()) return texts;
    EXPECT_EQ((*doc)->name, "regions");
    for (const auto* region : (*doc)->Children("region")) {
      texts.push_back(region->text);
    }
    return texts;
  }

  std::unique_ptr<ViewTree> tree_one_;
  StreamSpec spec_;
  engine::RelSchema schema_;
  Tuple template_row_;
  size_t key_col_ = 0;
  size_t name_col_ = 0;
};

TEST_F(TaggerMergeTest, EqualKeysAcrossStreamsEmitInStreamOrder) {
  auto first = Stream({{Value::Int64(1), "first"}});
  auto second = Stream({{Value::Int64(1), "second"}});
  TaggerStats stats;
  EXPECT_EQ(Tag({first.get(), second.get()}, &stats),
            std::vector<std::string>{"first"});
  EXPECT_EQ(stats.instances_emitted, 1u);
  EXPECT_EQ(stats.duplicates_skipped, 1u);
  first->Rewind();
  second->Rewind();
  EXPECT_EQ(Tag({second.get(), first.get()}, nullptr),
            std::vector<std::string>{"second"});
}

TEST_F(TaggerMergeTest, IntAndDoubleIdentityAreOneInstance) {
  auto ints = Stream({{Value::Int64(3), "int"}});
  auto doubles = Stream({{Value::Double(3.0), "double"}});
  TaggerStats stats;
  EXPECT_EQ(Tag({ints.get(), doubles.get()}, &stats),
            std::vector<std::string>{"int"});
  EXPECT_EQ(stats.instances_emitted, 1u);
  // A different numeric value is a different instance, in numeric order.
  auto halves = Stream({{Value::Double(2.5), "half"}});
  ints->Rewind();
  EXPECT_EQ(Tag({ints.get(), halves.get()}, nullptr),
            (std::vector<std::string>{"half", "int"}));
}

TEST_F(TaggerMergeTest, StringKeysOrderAsValueCompare) {
  const std::vector<std::string> keys = {"ab", "a", std::string("a\0b", 3),
                                         "", "a\x7f", "b"};
  std::vector<std::unique_ptr<engine::TupleStream>> owned;
  std::vector<engine::TupleStream*> streams;
  for (size_t i = 0; i < keys.size(); ++i) {
    owned.push_back(
        Stream({{Value::String(keys[i]), "k" + std::to_string(i)}}));
    streams.push_back(owned.back().get());
  }
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return Value::String(keys[a]).Compare(Value::String(keys[b])) < 0;
  });
  std::vector<std::string> expected;
  for (size_t i : order) expected.push_back("k" + std::to_string(i));
  EXPECT_EQ(Tag(streams, nullptr), expected);
}

TEST_F(TaggerMergeTest, EmptyStreams) {
  auto empty = Stream({});
  auto also_empty = Stream({});
  TaggerStats stats;
  EXPECT_TRUE(Tag({empty.get(), also_empty.get()}, &stats).empty());
  EXPECT_EQ(stats.instances_emitted, 0u);
  EXPECT_EQ(stats.rows_consumed, 0u);
  EXPECT_EQ(stats.peak_buffered_tuples, 0u);

  auto some = Stream({{Value::Int64(1), "x"}, {Value::Int64(2), "y"}});
  empty->Rewind();
  EXPECT_EQ(Tag({empty.get(), some.get()}, &stats),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(stats.rows_consumed, 2u);
}

}  // namespace
}  // namespace silkroute::core
