// Greedy plan generation (paper Sec. 5, Fig. 17): starting from the fully
// partitioned plan, repeatedly combine the pair of adjacent components whose
// combined query is cheapest relative to evaluating them separately,
//
//   relative_cost(e) = cost(q_combined) - (cost(q1) + cost(q2))
//   cost(q) = a * evaluation_cost(q) + b * data_size(q)
//
// using the target RDBMS's optimizer (engine::CostEstimator) as the cost
// oracle. Edges cheaper than t1 are mandatory; edges cheaper than t2 are
// optional; each subset of the optional edges defines a near-optimal plan.
// Oracle responses are memoized by SQL text, which is why the measured
// request counts in Sec. 5.1 (22 / 25) are far below the O(|E|^2) bound.
#ifndef SILKROUTE_SILKROUTE_GREEDY_H_
#define SILKROUTE_SILKROUTE_GREEDY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/estimator.h"
#include "silkroute/sqlgen.h"
#include "silkroute/view_tree.h"

namespace silkroute::core {

// The paper uses a=100, b=1, t1=-60000, t2=6000 for its commercial
// optimizer's cost units. Our estimator's units differ by a constant
// factor, so the thresholds below are rescaled. Fed the key-aware
// estimator, they keep the order subtree mandatory and the shallow
// supplier edges optional, and split the supplier->part and part->order
// edges; the paper's Fig. 18(b) keeps those two mandatory
// (EXPERIMENTS.md E5). As in the paper, one set of coefficients and
// thresholds is used for every query and configuration.
struct GreedyParams {
  double a = 100.0;   // weight of evaluation cost
  double b = 1.0;     // weight of data size
  double t1 = -3e5;   // mandatory-edge threshold (relative cost below this)
  double t2 = 1e5;    // optional-edge threshold
  SqlGenStyle style = SqlGenStyle::kOuterJoin;
  bool reduce = true;
};

struct GreedyPlan {
  std::vector<size_t> mandatory_edges;  // indices into tree.Edges()
  std::vector<size_t> optional_edges;
  size_t oracle_requests = 0;  // distinct estimate requests issued

  /// The plan family: mandatory edges always kept, each subset of the
  /// optional edges added (2^|optional| masks).
  std::vector<uint64_t> PlanMasks() const;

  /// The representative plan with all optional edges applied.
  uint64_t FullMask() const;

  std::string ToString(const ViewTree& tree) const;
};

/// Runs genPlan against a cost oracle (the publisher passes its
/// CostEstimator). Distinct oracle requests are memoized by SQL text and
/// reported in GreedyPlan::oracle_requests.
Result<GreedyPlan> GeneratePlanGreedy(const ViewTree& tree,
                                      engine::CostOracle* oracle,
                                      const GreedyParams& params);

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_GREEDY_H_
