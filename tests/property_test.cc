// Property tests over randomly generated RXL views: for any view built
// from foreign-key-respecting nested blocks over the TPC-H schema, every
// partition plan, in both SQL-generation styles, with and without
// reduction, must produce the identical XML document. This generalizes the
// paper-query integration sweep to arbitrary view shapes (deep chains,
// wide branching, reverse joins, filters).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/random.h"
#include "silkroute/dtdgen.h"
#include "silkroute/partition.h"
#include "silkroute/publisher.h"
#include "tests/test_util.h"
#include "xml/reader.h"

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;

/// A join option: extend a scope bound to `from_table` with `to_table`
/// via equalities on the paired columns.
struct JoinOption {
  const char* from_table;
  const char* from_col;
  const char* to_table;
  const char* to_col;
};

// Forward (FK) and reverse joins of the TPC-H fragment.
const JoinOption kJoins[] = {
    {"Supplier", "nationkey", "Nation", "nationkey"},
    {"Customer", "nationkey", "Nation", "nationkey"},
    {"Nation", "regionkey", "Region", "regionkey"},
    {"PartSupp", "partkey", "Part", "partkey"},
    {"PartSupp", "suppkey", "Supplier", "suppkey"},
    {"Orders", "custkey", "Customer", "custkey"},
    {"LineItem", "orderkey", "Orders", "orderkey"},
    // Reverse direction (one-to-many):
    {"Nation", "nationkey", "Supplier", "nationkey"},
    {"Nation", "nationkey", "Customer", "nationkey"},
    {"Region", "regionkey", "Nation", "regionkey"},
    {"Part", "partkey", "PartSupp", "partkey"},
    {"Supplier", "suppkey", "PartSupp", "suppkey"},
    {"Customer", "custkey", "Orders", "custkey"},
    {"Orders", "orderkey", "LineItem", "orderkey"},
};

const char* const kRootTables[] = {"Region", "Nation", "Supplier",
                                   "Customer", "Part", "Orders"};

/// Columns safe to emit as values per table.
const std::pair<const char*, const char*> kValueColumns[] = {
    {"Region", "name"},     {"Nation", "name"},    {"Supplier", "name"},
    {"Supplier", "addr"},   {"Customer", "name"},  {"Customer", "ph"},
    {"Part", "name"},       {"Part", "brand"},     {"PartSupp", "availqty"},
    {"Orders", "status"},   {"Orders", "date"},    {"LineItem", "qty"},
};

class ViewGenerator {
 public:
  explicit ViewGenerator(uint64_t seed) : rng_(seed) {}

  rxl::RxlQuery Generate() {
    var_counter_ = 0;
    tag_counter_ = 0;
    rxl::RxlQuery query;
    const char* root_table =
        kRootTables[rng_.Uniform(0, std::size(kRootTables) - 1)];
    std::string var = FreshVar();
    query.root.from.push_back({root_table, var});
    rxl::Content root;
    root.kind = rxl::Content::Kind::kElement;
    root.element = GenElement({{root_table, var}}, /*depth=*/0);
    query.root.construct.push_back(std::move(root));
    return query;
  }

 private:
  using Scope = std::vector<std::pair<std::string, std::string>>;  // table,var

  std::string FreshVar() { return "v" + std::to_string(var_counter_++); }
  std::string FreshTag() { return "e" + std::to_string(tag_counter_++); }

  static const char* KeyColumnOf(const std::string& table) {
    if (table == "Region") return "regionkey";
    if (table == "Nation") return "nationkey";
    if (table == "Supplier") return "suppkey";
    if (table == "Customer") return "custkey";
    if (table == "Part") return "partkey";
    if (table == "PartSupp") return "partkey";
    if (table == "Orders") return "orderkey";
    return "orderkey";  // LineItem
  }

  rxl::Content MakeValue(const Scope& scope) {
    rxl::Content c;
    c.kind = rxl::Content::Kind::kFieldRef;
    // Pick a scoped binding that has a registered value column.
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto& [table, var] =
          scope[static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(scope.size()) - 1))];
      std::vector<const char*> columns;
      for (const auto& [t, col] : kValueColumns) {
        if (table == t) columns.push_back(col);
      }
      if (columns.empty()) continue;
      c.field = {var,
                 columns[static_cast<size_t>(
                     rng_.Uniform(0, static_cast<int64_t>(columns.size()) - 1))]};
      return c;
    }
    // Fall back to the first binding's first value column or a text node.
    c.kind = rxl::Content::Kind::kText;
    c.text = "x";
    return c;
  }

  std::unique_ptr<rxl::Element> GenElement(const Scope& scope, int depth) {
    auto element = std::make_unique<rxl::Element>();
    element->tag = FreshTag();
    const int items = static_cast<int>(rng_.Uniform(1, 3));
    for (int i = 0; i < items; ++i) {
      const int64_t kind = rng_.Uniform(0, 9);
      if (kind < 4 || depth >= 3) {
        element->content.push_back(MakeValue(scope));
      } else if (kind < 6) {
        // Child element in the same scope.
        rxl::Content c;
        c.kind = rxl::Content::Kind::kElement;
        c.element = GenElement(scope, depth + 1);
        element->content.push_back(std::move(c));
      } else {
        // Nested block joining a new table.
        std::vector<const JoinOption*> options;
        for (const auto& join : kJoins) {
          for (const auto& [table, var] : scope) {
            if (table == join.from_table) options.push_back(&join);
          }
        }
        if (options.empty()) {
          element->content.push_back(MakeValue(scope));
          continue;
        }
        const JoinOption* join = options[static_cast<size_t>(
            rng_.Uniform(0, static_cast<int64_t>(options.size()) - 1))];
        std::string from_var;
        for (const auto& [table, var] : scope) {
          if (table == join->from_table) from_var = var;
        }
        std::string new_var = FreshVar();
        auto block = std::make_unique<rxl::Block>();
        block->from.push_back({join->to_table, new_var});
        rxl::Condition cond;
        cond.lhs.kind = rxl::Operand::Kind::kField;
        cond.lhs.field = {from_var, join->from_col};
        cond.op = rxl::CondOp::kEq;
        cond.rhs.kind = rxl::Operand::Kind::kField;
        cond.rhs.field = {new_var, join->to_col};
        block->where.push_back(std::move(cond));
        // Occasionally add a literal filter, exercising '?'/'*' labels and
        // partially-filtered branches.
        if (rng_.Uniform(0, 3) == 0) {
          rxl::Condition filter;
          filter.lhs.kind = rxl::Operand::Kind::kField;
          filter.lhs.field = {new_var, KeyColumnOf(join->to_table)};
          filter.op = rng_.Uniform(0, 1) == 0 ? rxl::CondOp::kLt
                                              : rxl::CondOp::kGt;
          filter.rhs.kind = rxl::Operand::Kind::kLiteral;
          filter.rhs.literal = Value::Int64(rng_.Uniform(1, 40));
          block->where.push_back(std::move(filter));
        }
        Scope inner = scope;
        inner.emplace_back(join->to_table, new_var);
        rxl::Content inner_elem;
        inner_elem.kind = rxl::Content::Kind::kElement;
        inner_elem.element = GenElement(inner, depth + 1);
        block->construct.push_back(std::move(inner_elem));
        rxl::Content c;
        c.kind = rxl::Content::Kind::kBlock;
        c.block = std::move(block);
        element->content.push_back(std::move(c));
      }
    }
    return element;
  }

  Random rng_;
  int var_counter_ = 0;
  int tag_counter_ = 0;
};

class RandomViewTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeTinyTpch(0.001).release();
    publisher_ = new Publisher(db_);
  }
  static void TearDownTestSuite() {
    delete publisher_;
    delete db_;
    publisher_ = nullptr;
    db_ = nullptr;
  }
  static Database* db_;
  static Publisher* publisher_;
};

Database* RandomViewTest::db_ = nullptr;
Publisher* RandomViewTest::publisher_ = nullptr;

TEST_P(RandomViewTest, AllPlansProduceIdenticalXml) {
  ViewGenerator generator(GetParam());
  rxl::RxlQuery view = generator.Generate();
  auto tree = ViewTree::Build(view, db_->catalog());
  ASSERT_TRUE(tree.ok()) << tree.status() << "\nview:\n" << view.ToString();
  ASSERT_GE(tree->num_nodes(), 1u);

  // Sample the plan space: all masks when small, a stratified sample
  // otherwise.
  std::vector<uint64_t> masks;
  const uint64_t num_plans = uint64_t{1} << tree->num_edges();
  if (num_plans <= 32) {
    for (uint64_t m = 0; m < num_plans; ++m) masks.push_back(m);
  } else {
    Random mask_rng(GetParam() ^ 0xABCDu);
    masks = {0, num_plans - 1};
    for (int i = 0; i < 24; ++i) {
      masks.push_back(static_cast<uint64_t>(
          mask_rng.Uniform(1, static_cast<int64_t>(num_plans) - 2)));
    }
  }

  std::string reference;
  for (uint64_t mask : masks) {
    for (auto style : {SqlGenStyle::kOuterJoin, SqlGenStyle::kOuterUnion}) {
      for (bool reduce : {false, true}) {
        PublishOptions opt;
        opt.style = style;
        opt.reduce = reduce;
        opt.document_element = "doc";
        std::ostringstream out;
        auto metrics = publisher_->ExecutePlan(*tree, mask, opt, &out);
        ASSERT_TRUE(metrics.ok())
            << metrics.status() << "\nmask=" << mask << " style="
            << SqlGenStyleToString(style) << " reduce=" << reduce
            << "\nview:\n" << view.ToString() << "\ntree:\n"
            << tree->ToString();
        EXPECT_EQ(metrics->tagger.forced_ancestor_opens, 0u);
        if (reference.empty()) {
          reference = out.str();
          // The reference must be well-formed and valid against the DTD
          // derived from the view tree's multiplicity labels.
          auto doc = xml::ParseXml(reference);
          ASSERT_TRUE(doc.ok()) << reference;
          auto dtd = GenerateDtd(*tree, "doc");
          ASSERT_TRUE(dtd.ok()) << dtd.status();
          Status valid = dtd->Validate(**doc);
          ASSERT_TRUE(valid.ok())
              << valid << "\nview:\n" << view.ToString() << "\ntree:\n"
              << tree->ToString();
        } else {
          ASSERT_EQ(out.str(), reference)
              << "mask=" << mask << " style=" << SqlGenStyleToString(style)
              << " reduce=" << reduce << "\nview:\n" << view.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomViewTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

}  // namespace
}  // namespace silkroute::core
