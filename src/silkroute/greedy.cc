#include "silkroute/greedy.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"

namespace silkroute::core {

std::vector<uint64_t> GreedyPlan::PlanMasks() const {
  uint64_t base = 0;
  for (size_t e : mandatory_edges) base |= uint64_t{1} << e;
  std::vector<uint64_t> masks;
  const size_t n = optional_edges.size();
  masks.reserve(size_t{1} << n);
  for (uint64_t subset = 0; subset < (uint64_t{1} << n); ++subset) {
    uint64_t mask = base;
    for (size_t i = 0; i < n; ++i) {
      if ((subset >> i) & 1) mask |= uint64_t{1} << optional_edges[i];
    }
    masks.push_back(mask);
  }
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  return masks;
}

uint64_t GreedyPlan::FullMask() const {
  uint64_t mask = 0;
  for (size_t e : mandatory_edges) mask |= uint64_t{1} << e;
  for (size_t e : optional_edges) mask |= uint64_t{1} << e;
  return mask;
}

std::string GreedyPlan::ToString(const ViewTree& tree) const {
  const auto edges = tree.Edges();
  auto render = [&](const std::vector<size_t>& list) {
    std::vector<std::string> parts;
    parts.reserve(list.size());
    for (size_t e : list) {
      parts.push_back(tree.node(edges[e].first).skolem_name + "-" +
                      tree.node(edges[e].second).skolem_name);
    }
    return Join(parts, ", ");
  };
  return "mandatory: [" + render(mandatory_edges) + "] optional: [" +
         render(optional_edges) + "] (oracle requests: " +
         std::to_string(oracle_requests) + ")";
}

namespace {

/// Memoizing cost oracle facade. Requests are deduplicated by SQL text, as
/// a middle-ware system would cache optimizer estimates.
class CachedOracle {
 public:
  explicit CachedOracle(engine::CostOracle* oracle) : oracle_(oracle) {}

  Result<engine::QueryEstimate> Estimate(const std::string& sql) {
    auto it = cache_.find(sql);
    if (it != cache_.end()) return it->second;
    SILK_ASSIGN_OR_RETURN(engine::QueryEstimate est,
                          oracle_->EstimateSql(sql));
    ++requests_;
    cache_.emplace(sql, est);
    return est;
  }

  size_t requests() const { return requests_; }

 private:
  engine::CostOracle* oracle_;
  std::map<std::string, engine::QueryEstimate> cache_;
  size_t requests_ = 0;
};

}  // namespace

Result<GreedyPlan> GeneratePlanGreedy(const ViewTree& tree,
                                      engine::CostOracle* oracle,
                                      const GreedyParams& params) {
  SqlGenerator gen(&tree, params.style, params.reduce);
  CachedOracle cached(oracle);

  // Every round re-probes the unchanged components, so costs are memoized
  // by node set first: SQL is generated once per distinct component. The
  // SQL-keyed oracle cache still sees every distinct text, so the request
  // count is unchanged.
  std::map<std::vector<int>, double> cost_by_nodes;
  auto cost_of = [&](const std::vector<int>& nodes) -> Result<double> {
    auto it = cost_by_nodes.find(nodes);
    if (it != cost_by_nodes.end()) return it->second;
    SILK_ASSIGN_OR_RETURN(StreamSpec spec, gen.GenerateComponent(nodes));
    SILK_ASSIGN_OR_RETURN(engine::QueryEstimate est,
                          cached.Estimate(spec.sql));
    double cost = params.a * est.cost + params.b * est.data_size();
    cost_by_nodes.emplace(nodes, cost);
    return cost;
  };

  // Current components: each node starts alone.
  std::map<int, std::vector<int>> components;  // root id -> sorted node ids
  std::map<int, int> comp_of;                  // node -> root id
  for (const auto& node : tree.nodes()) {
    components[node.id] = {node.id};
    comp_of[node.id] = node.id;
  }

  const auto edges = tree.Edges();
  std::set<size_t> remaining;
  for (size_t i = 0; i < edges.size(); ++i) remaining.insert(i);

  GreedyPlan plan;
  while (!remaining.empty()) {
    double best_cost = 0;
    ssize_t best_edge = -1;
    std::vector<int> best_merged;
    for (size_t e : remaining) {
      int a = comp_of[edges[e].first];
      int b = comp_of[edges[e].second];
      const std::vector<int>& nodes_a = components[a];
      const std::vector<int>& nodes_b = components[b];
      std::vector<int> merged;
      merged.reserve(nodes_a.size() + nodes_b.size());
      std::merge(nodes_a.begin(), nodes_a.end(), nodes_b.begin(),
                 nodes_b.end(), std::back_inserter(merged));
      SILK_ASSIGN_OR_RETURN(double cost_a, cost_of(nodes_a));
      SILK_ASSIGN_OR_RETURN(double cost_b, cost_of(nodes_b));
      SILK_ASSIGN_OR_RETURN(double cost_c, cost_of(merged));
      double relative = cost_c - (cost_a + cost_b);
      if (best_edge < 0 || relative < best_cost) {
        best_cost = relative;
        best_edge = static_cast<ssize_t>(e);
        best_merged = std::move(merged);
      }
    }
    if (best_edge < 0) break;
    if (best_cost < params.t1) {
      plan.mandatory_edges.push_back(static_cast<size_t>(best_edge));
    } else if (best_cost < params.t2) {
      plan.optional_edges.push_back(static_cast<size_t>(best_edge));
    } else {
      break;  // no qualifying edge remains
    }
    // Merge the two components.
    size_t e = static_cast<size_t>(best_edge);
    int a = comp_of[edges[e].first];
    int b = comp_of[edges[e].second];
    int keep = std::min(a, b);
    int drop = std::max(a, b);
    components[keep] = std::move(best_merged);
    components.erase(drop);
    for (auto& [node, comp] : comp_of) {
      if (comp == drop) comp = keep;
    }
    remaining.erase(e);
  }

  std::sort(plan.mandatory_edges.begin(), plan.mandatory_edges.end());
  std::sort(plan.optional_edges.begin(), plan.optional_edges.end());
  plan.oracle_requests = cached.requests();
  return plan;
}

}  // namespace silkroute::core
