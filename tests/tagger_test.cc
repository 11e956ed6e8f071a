#include "silkroute/tagger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>

#include "common/lanes.h"
#include "engine/executor.h"
#include "rxl/parser.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "silkroute/subview.h"
#include "sql/ddl.h"
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
  EXPECT_EQ(stats.byte_key_ranges, 0u);  // 3 and 3.0 share one word
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
  TaggerStats stats;
  EXPECT_EQ(Tag(streams, &stats), expected);
  EXPECT_EQ(stats.byte_key_ranges, 1u);  // no word carries a string
}

TEST_F(TaggerMergeTest, NegativeZeroMeetsZero) {
  auto negative = Stream({{Value::Double(-0.0), "negative"}});
  auto ints = Stream({{Value::Int64(0), "int"}});
  auto doubles = Stream({{Value::Double(0.0), "double"}});
  TaggerStats stats;
  EXPECT_EQ(Tag({negative.get(), ints.get(), doubles.get()}, &stats),
            std::vector<std::string>{"negative"});
  EXPECT_EQ(stats.instances_emitted, 1u);
  EXPECT_EQ(stats.duplicates_skipped, 2u);
  EXPECT_EQ(stats.byte_key_ranges, 0u);
}

TEST_F(TaggerMergeTest, NullKeySortsBelowNumerics) {
  auto one = Stream({{Value::Int64(1), "one"}});
  auto lowest = Stream({{Value::Double(-1e15), "lowest"}});
  auto null = Stream({{Value::Null(), "null"}});
  TaggerStats stats;
  EXPECT_EQ(Tag({one.get(), lowest.get(), null.get()}, &stats),
            (std::vector<std::string>{"null", "lowest", "one"}));
  EXPECT_EQ(stats.byte_key_ranges, 0u);
  // On the codec bytes too: a string key moves the range off words.
  auto text = Stream({{Value::String("a"), "text"}});
  one->Rewind();
  lowest->Rewind();
  null->Rewind();
  EXPECT_EQ(Tag({text.get(), one.get(), lowest.get(), null.get()}, &stats),
            (std::vector<std::string>{"null", "lowest", "one", "text"}));
  EXPECT_EQ(stats.byte_key_ranges, 1u);
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

/// A parent/child view over two hand-made tables, P(pk, name) and
/// C(ck, pk, name), both plans of its lattice. A child key no word carries
/// arrives mid-range: by then a parent and a child element are open and
/// instances wait in their slots (in both streams of the partitioned plan),
/// so the range must move every live key onto the codec bytes without
/// changing the document.
class ByteKeySwitchTest : public ::testing::Test {
 protected:
  struct Child {
    Value key;
    int64_t parent;
    std::string name;
  };
  /// Each <p>'s text and its <c> texts, in document order.
  using Document = std::vector<std::pair<std::string, std::vector<std::string>>>;

  /// Publishes P = {(1, p1), (2, p2)} and `children`, keyed by a column
  /// of `key_type`, through the plan of `mask` in one range; returns the
  /// document and the tagger's stats.
  static Document Publish(const std::vector<Child>& children,
                          const std::string& key_type, uint64_t mask,
                          TaggerStats* stats) {
    Database db;
    EXPECT_TRUE(sql::ExecuteDdl("CREATE TABLE P (pk BIGINT PRIMARY KEY, "
                                "name VARCHAR(10))",
                                &db)
                    .ok());
    EXPECT_TRUE(sql::ExecuteDdl("CREATE TABLE C (ck " + key_type +
                                    " PRIMARY KEY, pk BIGINT, name "
                                    "VARCHAR(10))",
                                &db)
                    .ok());
    Table* parents = db.GetTable("P").value();
    Table* kids = db.GetTable("C").value();
    for (int64_t pk : {1, 2}) {
      EXPECT_TRUE(parents
                      ->Insert(Tuple{Value::Int64(pk),
                                     Value::String("p" + std::to_string(pk))})
                      .ok());
    }
    for (const Child& child : children) {
      Status inserted = kids->Insert(
          Tuple{child.key, Value::Int64(child.parent), Value::String(child.name)});
      EXPECT_TRUE(inserted.ok()) << inserted;
    }
    ViewTree tree = MustBuildTree(
        "from P $p construct <p>$p.name { from C $c where $c.pk = $p.pk "
        "construct <c>$c.name</c> }</p>",
        db.catalog());
    auto plan = Partition::FromMask(tree, mask);
    EXPECT_TRUE(plan.ok());
    SqlGenerator gen(&tree, SqlGenStyle::kOuterJoin, false);
    std::vector<StreamSpec> specs = gen.GeneratePlan(*plan).value();
    std::vector<std::unique_ptr<engine::TupleStream>> streams;
    std::vector<Tagger::StreamInput> inputs;
    for (const StreamSpec& spec : specs) {
      engine::QueryExecutor exec(&db);
      auto rel = exec.ExecuteSql(spec.sql);
      EXPECT_TRUE(rel.ok()) << spec.sql << "\n" << rel.status();
      streams.push_back(
          std::make_unique<engine::TupleStream>(std::move(rel).value()));
      inputs.push_back({&spec, streams.back().get()});
    }
    std::ostringstream out;
    xml::XmlWriter writer(&out);
    Tagger::Options options;
    options.document_element = "ps";
    options.ranges = 1;
    Tagger tagger(&tree, &writer, options);
    Status tagged = tagger.Run(std::move(inputs));
    EXPECT_TRUE(tagged.ok()) << tagged;
    EXPECT_TRUE(writer.Finish().ok());
    *stats = tagger.stats();
    Document document;
    auto doc = xml::ParseXml(out.str());
    EXPECT_TRUE(doc.ok()) << out.str();
    if (!doc.ok()) return document;
    for (const auto* p : (*doc)->Children("p")) {
      document.push_back({p->text, {}});
      for (const auto* c : p->Children("c")) {
        document.back().second.push_back(c->text);
      }
    }
    return document;
  }

  /// Publishes `children` through both plans and expects `expected` from
  /// each, with `byte_key_ranges` ranges on the codec bytes.
  static void Expect(const std::vector<Child>& children,
                     const Document& expected, size_t byte_key_ranges,
                     const std::string& key_type = "DOUBLE") {
    for (uint64_t mask : {uint64_t{0}, uint64_t{1}}) {
      SCOPED_TRACE(testing::Message() << "mask " << mask);
      TaggerStats stats;
      EXPECT_EQ(Publish(children, key_type, mask, &stats), expected);
      EXPECT_EQ(stats.byte_key_ranges, byte_key_ranges);
      EXPECT_EQ(stats.forced_ancestor_opens, 0u);
      EXPECT_EQ(stats.instances_emitted, 2 + children.size());
    }
  }
};

TEST_F(ByteKeySwitchTest, WordKeysStayOnWords) {
  Expect({{Value::Int64(10), 1, "a"},
          {Value::Double(10.5), 1, "b"},
          {Value::Int64(11), 1, "c"},
          {Value::Int64(12), 2, "d"}},
         {{"p1", {"a", "b", "c"}}, {"p2", {"d"}}}, 0);
}

TEST_F(ByteKeySwitchTest, LargeIntegerKeyMidRange) {
  // 2^53 + 1 has no exact double image: its codec segment carries a
  // tiebreaker, so the range moves onto bytes when it reads that row.
  const int64_t big = (int64_t{1} << 53) + 1;
  Expect({{Value::Int64(10), 1, "a"},
          {Value::Int64(11), 1, "b"},
          {Value::Int64(big), 1, "c"},
          {Value::Int64(big + 1), 1, "d"},
          {Value::Int64(12), 2, "e"}},
         {{"p1", {"a", "b", "c", "d"}}, {"p2", {"e"}}}, 1);
}

TEST_F(ByteKeySwitchTest, ZeroImageNanMidRange) {
  // The NaN whose codec image is 0, NULL's word: it sorts below every
  // other numeric, and only the codec bytes tell it from NULL.
  const uint64_t bits = ~uint64_t{0};
  double nan;
  std::memcpy(&nan, &bits, sizeof(nan));
  ASSERT_TRUE(std::isnan(nan));
  Expect({{Value::Int64(10), 1, "a"},
          {Value::Int64(11), 1, "b"},
          {Value::Int64(12), 2, "d"},
          {Value::Double(nan), 2, "c"}},
         {{"p1", {"a", "b"}}, {"p2", {"c", "d"}}}, 1);
}

TEST_F(ByteKeySwitchTest, StringKeyMidRange) {
  // p1 has no child, so p1 is open and p2 waits in its slot when the
  // first string key arrives.
  Expect({{Value::String("k2"), 2, "b"},
          {Value::String("k1"), 2, "a"},
          {Value::String(std::string("k1\0", 3)), 2, "c"}},
         {{"p1", {}}, {"p2", {"a", "c", "b"}}}, 1, "VARCHAR(10)");
}

/// Config A (TPC-H scale 0.025): the whole Query 1 view is large enough
/// for Run to cut into root-instance ranges and tag them concurrently.
class RangedTaggerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTinyTpch(0.025).release();
    tree_ = new ViewTree(MustBuildTree(Query1Rxl(), db_->catalog()));
  }
  static void TearDownTestSuite() {
    delete results_;
    delete tree_;
    delete db_;
    results_ = nullptr;
    tree_ = nullptr;
    db_ = nullptr;
  }

  struct Bound {
    std::vector<StreamSpec> specs;
    std::vector<std::unique_ptr<engine::TupleStream>> streams;
  };

  static Bound Bind(uint64_t mask, SqlGenStyle style, bool reduce) {
    Bound bound;
    auto plan = Partition::FromMask(*tree_, mask);
    EXPECT_TRUE(plan.ok());
    SqlGenerator gen(tree_, style, reduce);
    auto generated = gen.GeneratePlan(*plan);
    EXPECT_TRUE(generated.ok()) << generated.status();
    bound.specs = std::move(generated).value();
    // The 16 plans of the byte-identity matrix send 25 distinct queries:
    // each runs once, and every plan reads its result through its own
    // zero-copy view of the one wire buffer.
    if (results_ == nullptr) results_ = new std::map<std::string, Stream>;
    for (const auto& spec : bound.specs) {
      auto [it, fresh] = results_->try_emplace(spec.sql);
      if (fresh) {
        engine::QueryExecutor exec(db_);
        auto rel = exec.ExecuteSql(spec.sql);
        EXPECT_TRUE(rel.ok()) << spec.sql << "\n" << rel.status();
        it->second = std::make_unique<engine::TupleStream>(
            std::move(rel).value());
      }
      const engine::TupleStream& result = *it->second;
      bound.streams.push_back(std::make_unique<engine::TupleStream>(
          result.Slice(0, result.wire_bytes(), result.num_tuples())));
    }
    return bound;
  }

  struct Tagged {
    Status status;
    std::string xml;
    TaggerStats stats;
  };

  /// How the document is written: pretty or compact, with or without an
  /// XML declaration.
  struct Mode {
    bool pretty;
    bool declaration;
  };

  /// Rewinds the streams and tags them with `options`.
  static Tagged Tag(const Bound& bound, const Tagger::Options& options,
                    Mode mode = {false, true}) {
    std::vector<Tagger::StreamInput> inputs;
    for (size_t i = 0; i < bound.specs.size(); ++i) {
      bound.streams[i]->Rewind();
      inputs.push_back({&bound.specs[i], bound.streams[i].get()});
    }
    std::ostringstream out;
    xml::XmlWriter::Options writer_options;
    writer_options.pretty = mode.pretty;
    writer_options.declaration = mode.declaration;
    Tagged tagged;
    {
      xml::XmlWriter writer(&out, writer_options);
      Tagger tagger(tree_, &writer, options);
      tagged.status = tagger.Run(std::move(inputs));
      if (tagged.status.ok()) tagged.status = writer.Finish();
      tagged.stats = tagger.stats();
    }
    tagged.xml = out.str();
    return tagged;
  }

  static Tagger::Options Ranges(size_t ranges, std::string document = "") {
    Tagger::Options options;
    options.document_element = std::move(document);
    options.ranges = ranges;
    return options;
  }

  using Stream = std::unique_ptr<engine::TupleStream>;
  static Database* db_;
  static ViewTree* tree_;
  static std::map<std::string, Stream>* results_;  // by SQL text
};

Database* RangedTaggerTest::db_ = nullptr;
ViewTree* RangedTaggerTest::tree_ = nullptr;
std::map<std::string, RangedTaggerTest::Stream>* RangedTaggerTest::results_ =
    nullptr;

TEST_F(RangedTaggerTest, RangesMatchOneRangeByteForByte) {
  // Every plan publishes the same bytes, so one one-range document per
  // writer mode is the reference for all of them; each plan's own
  // one-range run pins its stats (which the writer mode cannot change).
  const SqlGenStyle kStyles[] = {SqlGenStyle::kOuterJoin,
                                 SqlGenStyle::kOuterUnion};
  // The last mode writes nothing before range 0's first element; that
  // only concerns the writers, so the fully partitioned plans cover it.
  const std::tuple<bool, bool, const char*> kModes[] = {
      {false, true, "suppliers"},
      {false, true, ""},
      {true, true, "suppliers"},
      {true, true, ""},
      {true, false, ""}};
  std::map<std::tuple<bool, bool, std::string>, std::string> reference;
  for (uint64_t mask : {uint64_t{0}, uint64_t{0x35}, uint64_t{0x1E8},
                        uint64_t{0x1FF}}) {
    for (SqlGenStyle style : kStyles) {
      for (bool reduce : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "mask " << mask << " style "
                     << SqlGenStyleToString(style) << " reduce " << reduce);
        Bound bound = Bind(mask, style, reduce);
        size_t rows = 0;
        for (const auto& stream : bound.streams) rows += stream->num_tuples();
        Tagged one = Tag(bound, Ranges(1, "suppliers"));
        ASSERT_TRUE(one.status.ok()) << one.status;
        EXPECT_EQ(one.stats.ranges, 1u);
        EXPECT_EQ(one.stats.rows_consumed, rows);
        EXPECT_EQ(one.stats.instances_emitted, 62476u);  // Config A
        EXPECT_EQ(one.stats.max_open_depth, 4u);
        EXPECT_LE(one.stats.peak_buffered_tuples, tree_->num_nodes());
        for (const auto& [pretty, declaration, document] : kModes) {
          SCOPED_TRACE(testing::Message()
                       << "pretty " << pretty << " declaration "
                       << declaration << " document '" << document << "'");
          if (!declaration && mask != 0) continue;
          const Mode mode{pretty, declaration};
          auto [it, fresh] =
              reference.try_emplace({pretty, declaration, document});
          if (fresh && !pretty && declaration && document[0] != '\0') {
            it->second = one.xml;
          } else if (fresh) {
            Tagged ref = Tag(bound, Ranges(1, document), mode);
            ASSERT_TRUE(ref.status.ok()) << ref.status;
            it->second = std::move(ref.xml);
          }
          Tagged four = Tag(bound, Ranges(4, document), mode);
          ASSERT_TRUE(four.status.ok()) << four.status;
          EXPECT_EQ(four.stats.ranges, 4u);
          EXPECT_TRUE(four.xml == it->second);
          if (!pretty && document[0] != '\0') {
            EXPECT_TRUE(one.xml == it->second);
          }
          EXPECT_EQ(four.stats.instances_emitted,
                    one.stats.instances_emitted);
          EXPECT_EQ(four.stats.rows_consumed, one.stats.rows_consumed);
          EXPECT_EQ(four.stats.duplicates_skipped,
                    one.stats.duplicates_skipped);
          EXPECT_EQ(four.stats.forced_ancestor_opens,
                    one.stats.forced_ancestor_opens);
          EXPECT_EQ(four.stats.max_open_depth, one.stats.max_open_depth);
          EXPECT_EQ(four.stats.peak_buffered_tuples,
                    one.stats.peak_buffered_tuples);
        }
      }
    }
  }
}

TEST_F(RangedTaggerTest, AutomaticRangeCountFollowsRowsAndIdleLanes) {
  Bound bound = Bind(0x1FF, SqlGenStyle::kOuterJoin, true);
  size_t rows = 0;
  for (const auto& stream : bound.streams) rows += stream->num_tuples();
  const std::string reference = Tag(bound, Ranges(1, "suppliers")).xml;
  // Nothing else runs here, so every lane but the caller's is idle.
  ASSERT_EQ(BusyLanes(), 0u);
  Tagged automatic = Tag(bound, Ranges(0, "suppliers"));
  ASSERT_TRUE(automatic.status.ok()) << automatic.status;
  const size_t threads = std::min(
      std::clamp<size_t>(rows / Tagger::kMinRowsPerRange, 1, kMaxLanes),
      LaneCapacity());
  EXPECT_EQ(automatic.stats.threads, threads);
  EXPECT_LE(automatic.stats.threads, kMaxLanes);
  const size_t waves = (rows + threads * Tagger::kMaxRowsPerRange - 1) /
                       (threads * Tagger::kMaxRowsPerRange);
  EXPECT_EQ(automatic.stats.ranges, threads == 1 ? 1 : threads * waves);
  EXPECT_TRUE(automatic.xml == reference);

  // With every idle lane taken (a busy service pool), the same document
  // is one range on the calling thread.
  LaneLoan all(kMaxLanes);
  Tagged busy = Tag(bound, Ranges(0, "suppliers"));
  ASSERT_TRUE(busy.status.ok()) << busy.status;
  EXPECT_EQ(busy.stats.ranges, 1u);
  EXPECT_EQ(busy.stats.threads, 1u);
  EXPECT_EQ(busy.stats.peak_buffered_xml_bytes, 0u);
  EXPECT_TRUE(busy.xml == reference);
}

TEST_F(RangedTaggerTest, WavesBoundTheBufferedXml) {
  // Sixteen ranges on at most kMaxLanes threads run in waves; each wave is
  // appended before the next starts, so the detached writers never hold
  // more than threads - 1 of the sixteen ranges (they would hold fifteen
  // if every range ran at once).
  Bound bound = Bind(0, SqlGenStyle::kOuterJoin, true);
  const std::string reference = Tag(bound, Ranges(1, "suppliers")).xml;
  for (bool busy : {false, true}) {
    SCOPED_TRACE(busy ? "no idle lane" : "idle lanes");
    std::optional<LaneLoan> all;
    if (busy) all.emplace(kMaxLanes);
    Tagged waves = Tag(bound, Ranges(16, "suppliers"));
    ASSERT_TRUE(waves.status.ok()) << waves.status;
    EXPECT_EQ(waves.stats.ranges, 16u);
    EXPECT_TRUE(waves.xml == reference);
    EXPECT_LE(waves.stats.threads, LaneCapacity());
    if (waves.stats.threads == 1) {
      EXPECT_EQ(waves.stats.peak_buffered_xml_bytes, 0u);
    } else {
      EXPECT_GT(waves.stats.peak_buffered_xml_bytes, 0u);
      EXPECT_LT(waves.stats.peak_buffered_xml_bytes, reference.size() / 2);
    }
    EXPECT_EQ(waves.stats.threads, busy ? 1u : LaneCapacity());
  }

  // Automatic: with one idle helper lane, the fully partitioned view
  // (62,476 rows) is more than two ranges of kMaxRowsPerRange rows, so it
  // is cut into waves of two ranges.
  if (LaneCapacity() < 2) return;
  size_t rows = 0;
  for (const auto& stream : bound.streams) rows += stream->num_tuples();
  ASSERT_GT(rows, 2 * Tagger::kMaxRowsPerRange);
  LaneLoan others(LaneCapacity() - 2);
  Tagged automatic = Tag(bound, Ranges(0, "suppliers"));
  ASSERT_TRUE(automatic.status.ok()) << automatic.status;
  EXPECT_EQ(automatic.stats.threads, 2u);
  EXPECT_EQ(automatic.stats.ranges,
            2 * ((rows + 2 * Tagger::kMaxRowsPerRange - 1) /
                 (2 * Tagger::kMaxRowsPerRange)));
  EXPECT_TRUE(automatic.xml == reference);
}

TEST_F(RangedTaggerTest, CorruptRowInALaterRangeFailsTheRun) {
  // The largest stream's last row lies in the last range and is never
  // probed while cutting: a wrong arity there fails only that range's
  // merge. A bad field tag there fails the cut's framing scan instead.
  Bound bound = Bind(0, SqlGenStyle::kOuterJoin, false);
  size_t largest = 0;
  for (size_t i = 0; i < bound.streams.size(); ++i) {
    if (bound.streams[i]->num_tuples() >
        bound.streams[largest]->num_tuples()) {
      largest = i;
    }
  }
  engine::TupleStream& victim = *bound.streams[largest];
  auto offsets = victim.RowOffsets();
  ASSERT_TRUE(offsets.ok()) << offsets.status();
  const std::string& wire = *victim.shared_wire();
  const size_t last = (*offsets)[offsets->size() - 2];

  std::string wrong_arity = wire.substr(0, last);
  size_t at = last;
  auto row = engine::DeserializeTuple(wire, &at);
  ASSERT_TRUE(row.ok()) << row.status();
  row->mutable_values().push_back(Value::Int64(7));
  engine::SerializeTuple(*row, &wrong_arity);

  std::string bad_tag = wire;
  bad_tag[last + 4] = static_cast<char>(0x7f);  // the first field's tag

  const std::pair<std::string*, const char*> kCases[] = {
      {&wrong_arity, "field(s), schema"}, {&bad_tag, "bad field tag"}};
  for (const auto& [corrupt, message] : kCases) {
    Bound broken;
    broken.specs = bound.specs;
    for (size_t i = 0; i < bound.streams.size(); ++i) {
      broken.streams.push_back(std::make_unique<engine::TupleStream>(
          i == largest
              ? engine::TupleStream(
                    victim.schema(),
                    std::make_shared<const std::string>(*corrupt),
                    victim.num_tuples())
              : bound.streams[i]->Slice(0, bound.streams[i]->wire_bytes(),
                                        bound.streams[i]->num_tuples())));
    }
    Tagged tagged = Tag(broken, Ranges(4, "suppliers"));
    EXPECT_EQ(tagged.status.code(), StatusCode::kInvalidArgument)
        << tagged.status;
    EXPECT_NE(tagged.status.message().find(message), std::string::npos)
        << tagged.status;
  }
}

TEST_F(RangedTaggerTest, EmptySkippedNodeStreamStillCuts) {
  // A node the publisher skipped arrives as an empty stream with no
  // columns at all; it has no rows to cut, so it must not force one range.
  Bound bound = Bind(0, SqlGenStyle::kOuterJoin, false);
  bound.streams.back() =
      std::make_unique<engine::TupleStream>(engine::Relation{});
  Tagged one = Tag(bound, Ranges(1, "suppliers"));
  Tagged four = Tag(bound, Ranges(4, "suppliers"));
  ASSERT_TRUE(one.status.ok()) << one.status;
  ASSERT_TRUE(four.status.ok()) << four.status;
  EXPECT_EQ(four.stats.ranges, 4u);
  EXPECT_TRUE(one.xml == four.xml);
}

TEST_F(RangedTaggerTest, ServeFragmentsStayOneRange) {
  // Every Sec. 7 nation fragment the serve workload requests is under two
  // ranges' worth of rows at Config A, so it is tagged on the calling
  // thread; the whole view is not.
  auto view = rxl::ParseRxl(Query1Rxl());
  ASSERT_TRUE(view.ok()) << view.status();
  auto nations = db_->GetTable("Nation");
  ASSERT_TRUE(nations.ok());
  std::vector<std::string> paths = {"/supplier/part/order[orderkey=1]"};
  for (size_t i = 0; i < (*nations)->num_rows(); ++i) {
    auto name = engine::QueryExecutor(db_).ExecuteSql(
        "select n.name from Nation n where n.nationkey = " +
        std::to_string(i));
    ASSERT_TRUE(name.ok() && name->rows.size() == 1u) << i;
    paths.push_back("/supplier[nation='" +
                    name->rows[0][0].AsString() + "']");
  }
  Publisher publisher(db_);
  PublishOptions options;
  options.document_element = "fragment";
  for (const std::string& path : paths) {
    auto composed = ComposeSubview(*view, path);
    ASSERT_TRUE(composed.ok()) << path << ": " << composed.status();
    std::ostringstream out;
    auto result = publisher.Publish(composed->ToString(), options, &out);
    ASSERT_TRUE(result.ok()) << path << ": " << result.status();
    EXPECT_LT(result->metrics.rows, 2 * Tagger::kMinRowsPerRange) << path;
    EXPECT_EQ(result->metrics.tagger.ranges, 1u) << path;
  }
  std::ostringstream out;
  auto whole = publisher.Publish(Query1Rxl(), options, &out);
  ASSERT_TRUE(whole.ok()) << whole.status();
  // Every lane is idle, and the whole view is one wave of ranges.
  EXPECT_EQ(whole->metrics.tagger.threads, LaneCapacity());
  EXPECT_EQ(whole->metrics.tagger.ranges, LaneCapacity());
}

TEST_F(TaggerTest, SmallDocumentIsOneRangeOnTheCallersStreams) {
  // 4,980 rows at this scale: under two ranges' worth, so Run cuts
  // nothing and starts no thread. One range reads the caller's streams in
  // place (a cut would read slices and leave them unread).
  std::vector<StreamSpec> specs;
  std::vector<std::unique_ptr<engine::TupleStream>> streams;
  BindPlan(0x1FF, SqlGenStyle::kOuterJoin, true, &specs, &streams);
  size_t rows = 0;
  for (const auto& stream : streams) rows += stream->num_tuples();
  ASSERT_LT(rows, 2 * Tagger::kMinRowsPerRange);
  std::ostringstream out;
  xml::XmlWriter writer(&out);
  Tagger tagger(tree_, &writer, Tagger::Options{"suppliers"});
  std::vector<Tagger::StreamInput> inputs;
  for (size_t i = 0; i < specs.size(); ++i) {
    inputs.push_back({&specs[i], streams[i].get()});
  }
  ASSERT_TRUE(tagger.Run(std::move(inputs)).ok());
  EXPECT_EQ(tagger.stats().ranges, 1u);
  EXPECT_EQ(tagger.stats().threads, 1u);
  std::vector<engine::WireField> fields;
  for (const auto& stream : streams) {
    auto more = stream->NextFields(&fields);
    ASSERT_TRUE(more.ok());
    EXPECT_FALSE(*more);
  }
}

}  // namespace
}  // namespace silkroute::core
