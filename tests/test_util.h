// Shared fixtures for SilkRoute core tests.
#ifndef SILKROUTE_TESTS_TEST_UTIL_H_
#define SILKROUTE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>

#include "relational/database.h"
#include "rxl/parser.h"
#include "silkroute/view_tree.h"
#include "tpch/generator.h"

namespace silkroute::core::testutil {

/// A small, deterministic TPC-H instance (shared per test suite).
inline std::unique_ptr<Database> MakeTinyTpch(double scale = 0.002) {
  auto db = std::make_unique<Database>();
  tpch::TpchConfig config;
  config.scale_factor = scale;
  Status s = tpch::GenerateTpch(config, db.get());
  EXPECT_TRUE(s.ok()) << s;
  return db;
}

/// Parses RXL and builds the labeled view tree against `catalog`.
inline ViewTree MustBuildTree(std::string_view rxl_text,
                              const Catalog& catalog) {
  auto parsed = rxl::ParseRxl(rxl_text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto tree = ViewTree::Build(*parsed, catalog);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).value();
}

/// Finds a node id by Skolem name ("S1.4.2"); -1 if absent.
inline int NodeByName(const ViewTree& tree, const std::string& name) {
  for (const auto& n : tree.nodes()) {
    if (n.skolem_name == name) return n.id;
  }
  return -1;
}

}  // namespace silkroute::core::testutil

#endif  // SILKROUTE_TESTS_TEST_UTIL_H_
