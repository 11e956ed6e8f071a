// View-tree partitioning (paper Sec. 3.2): a plan keeps a subset of the
// view-tree edges; the connected components of the resulting spanning forest
// each become one SQL query / tuple stream. With |E| edges there are 2^|E|
// plans, from fully partitioned (no edges, one stream per node) to unified
// (all edges, a single stream).
//
// Reduction (paper Sec. 3.5) additionally collapses nodes connected by
// '1'-labeled kept edges into execution classes; each class contributes one
// relational sub-select instead of one per node.
#ifndef SILKROUTE_SILKROUTE_PARTITION_H_
#define SILKROUTE_SILKROUTE_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "silkroute/view_tree.h"

namespace silkroute::core {

class Partition {
 public:
  /// Builds a partition from an edge bitmask aligned with tree.Edges():
  /// bit i set means edge i is kept (inside a SQL query).
  static Result<Partition> FromMask(const ViewTree& tree, uint64_t mask);

  /// All edges kept: one SQL query for the whole view.
  static Partition Unified(const ViewTree& tree);

  /// No edges kept: one SQL query per view-tree node.
  static Partition FullyPartitioned(const ViewTree& tree);

  struct Component {
    int root = -1;           // shallowest node id
    std::vector<int> nodes;  // ascending ids (BFS order: parents first)
  };

  const ViewTree& tree() const { return *tree_; }
  uint64_t mask() const { return mask_; }
  bool EdgeKept(size_t edge_index) const {
    return (mask_ >> edge_index) & 1;
  }
  const std::vector<Component>& components() const { return components_; }
  size_t num_streams() const { return components_.size(); }

  /// "{S1,S1.1}|{S1.2}|..." rendering.
  std::string ToString() const;

 private:
  const ViewTree* tree_ = nullptr;
  uint64_t mask_ = 0;
  std::vector<Component> components_;
};

/// Number of plans (2^|E|) for a view tree; ViewTree::Build caps |E| at
/// ViewTree::kMaxEdges, so the count fits.
uint64_t NumPlans(const ViewTree& tree);

/// An execution class: one or more view-tree nodes collapsed by reduction
/// ('1'-labeled kept edges), evaluated as a single relational sub-select.
struct ExecNode {
  int head = -1;             // shallowest covered node id
  std::vector<int> covered;  // ascending ids; covered[0] == head
  int parent = -1;           // index of parent ExecNode in the component
  std::vector<int> children; // indices of child ExecNodes
};

struct ExecComponent {
  Partition::Component source;
  std::vector<ExecNode> nodes;  // nodes[0] is the root class
};

/// Computes the execution classes of one component. When `reduce` is false,
/// every view-tree node is its own class.
Result<ExecComponent> BuildExecComponent(const ViewTree& tree,
                                         const Partition::Component& component,
                                         bool reduce);

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_PARTITION_H_
