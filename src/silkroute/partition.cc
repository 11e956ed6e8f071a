#include "silkroute/partition.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace silkroute::core {

namespace {

/// Union-find over node ids.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) {
    int ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[static_cast<size_t>(std::max(ra, rb))] = std::min(ra, rb);
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

Result<Partition> Partition::FromMask(const ViewTree& tree, uint64_t mask) {
  const auto edges = tree.Edges();
  if (mask >= (uint64_t{1} << edges.size())) {
    return Status::OutOfRange("edge mask out of range");
  }
  Partition p;
  p.tree_ = &tree;
  p.mask_ = mask;

  DisjointSet ds(tree.num_nodes());
  for (size_t i = 0; i < edges.size(); ++i) {
    if ((mask >> i) & 1) ds.Union(edges[i].first, edges[i].second);
  }
  std::map<int, Component> by_root;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    int root = ds.Find(static_cast<int>(i));
    Component& c = by_root[root];
    if (c.nodes.empty()) c.root = static_cast<int>(i);
    c.nodes.push_back(static_cast<int>(i));
  }
  p.components_.reserve(by_root.size());
  for (auto& [root, c] : by_root) {
    // Ascending ids = BFS order; root is the lowest id = shallowest node
    // (BFS numbering guarantees ancestors have smaller ids).
    c.root = c.nodes.front();
    p.components_.push_back(std::move(c));
  }
  // Order components by their root id for a stable stream order.
  std::sort(p.components_.begin(), p.components_.end(),
            [](const Component& a, const Component& b) {
              return a.root < b.root;
            });
  return p;
}

Partition Partition::Unified(const ViewTree& tree) {
  return FromMask(tree, NumPlans(tree) - 1).value();
}

Partition Partition::FullyPartitioned(const ViewTree& tree) {
  return FromMask(tree, 0).value();
}

std::string Partition::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(components_.size());
  for (const auto& c : components_) {
    std::vector<std::string> names;
    names.reserve(c.nodes.size());
    for (int id : c.nodes) names.push_back(tree_->node(id).skolem_name);
    parts.push_back("{" + Join(names, ",") + "}");
  }
  return Join(parts, " | ");
}

uint64_t NumPlans(const ViewTree& tree) {
  return uint64_t{1} << tree.num_edges();
}

Result<ExecComponent> BuildExecComponent(
    const ViewTree& tree, const Partition::Component& component, bool reduce) {
  ExecComponent out;
  out.source = component;

  // Class assignment: union nodes across '1'-labeled edges that are inside
  // the component (both endpoints members).
  std::map<int, size_t> member_index;
  for (size_t i = 0; i < component.nodes.size(); ++i) {
    member_index[component.nodes[i]] = i;
  }
  DisjointSet ds(component.nodes.size());
  if (reduce) {
    for (int id : component.nodes) {
      const ViewTreeNode& node = tree.node(id);
      if (node.parent < 0) continue;
      auto parent_it = member_index.find(node.parent);
      if (parent_it == member_index.end()) continue;
      if (node.edge_label == Multiplicity::kOne) {
        ds.Union(static_cast<int>(parent_it->second),
                 static_cast<int>(member_index[id]));
      }
    }
  }

  // Build classes keyed by representative; the head is the smallest id
  // (shallowest node, since ids are BFS-ordered).
  std::map<int, size_t> class_of_rep;  // representative -> ExecNode index
  for (size_t i = 0; i < component.nodes.size(); ++i) {
    int rep = ds.Find(static_cast<int>(i));
    auto [it, inserted] = class_of_rep.emplace(rep, out.nodes.size());
    if (inserted) out.nodes.emplace_back();
    ExecNode& cls = out.nodes[it->second];
    int node_id = component.nodes[i];
    cls.covered.push_back(node_id);
    if (cls.head < 0 || node_id < cls.head) cls.head = node_id;
  }
  for (auto& cls : out.nodes) {
    std::sort(cls.covered.begin(), cls.covered.end());
    cls.head = cls.covered.front();
  }
  // Root class first; then by head id.
  std::sort(out.nodes.begin(), out.nodes.end(),
            [](const ExecNode& a, const ExecNode& b) {
              return a.head < b.head;
            });

  // Wire parent/child relations between classes: for each class (other than
  // the root class), walk up from its head until hitting a node covered by
  // another class in this component.
  std::map<int, size_t> class_of_node;
  for (size_t ci = 0; ci < out.nodes.size(); ++ci) {
    for (int id : out.nodes[ci].covered) class_of_node[id] = ci;
  }
  for (size_t ci = 0; ci < out.nodes.size(); ++ci) {
    ExecNode& cls = out.nodes[ci];
    int up = tree.node(cls.head).parent;
    while (up >= 0) {
      auto it = class_of_node.find(up);
      if (it != class_of_node.end()) {
        if (it->second == ci) {
          return Status::Internal("exec class contains its own ancestor head");
        }
        cls.parent = static_cast<int>(it->second);
        out.nodes[it->second].children.push_back(static_cast<int>(ci));
        break;
      }
      up = tree.node(up).parent;
    }
    if (cls.parent < 0 && ci != 0) {
      return Status::Internal("non-root exec class has no parent in component");
    }
  }
  return out;
}

}  // namespace silkroute::core
