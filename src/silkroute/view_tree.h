// The view tree (paper Sec. 3.1): SilkRoute's intermediate representation
// for an RXL view query. It is a global XML template — one node per element
// template, each annotated with a non-recursive datalog rule that computes
// all instances of that node — plus Skolem machinery:
//
//  - every node carries a Skolem-function index (SFI), a path of labels
//    assigned breadth-first ("S1.4.2" has SFI {1,4,2});
//  - every Skolem-term variable carries a variable index (p, q) where p is
//    the level of the shallowest node containing it and q makes (p, q)
//    unique; the canonical relational column for it is "v<p>_<q>";
//  - the label column for level j is "L<j>".
//
// Edges carry a multiplicity label (1 ? + *) derived from the database
// constraints (see labeling.h), which drives inner-vs-outer join selection
// and view-tree reduction.
#ifndef SILKROUTE_SILKROUTE_VIEW_TREE_H_
#define SILKROUTE_SILKROUTE_VIEW_TREE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "rxl/ast.h"

namespace silkroute::core {

/// Edge multiplicity: how many child instances per parent instance.
enum class Multiplicity {
  kOne,       // exactly one  ("1")
  kOptional,  // zero or one  ("?")
  kPlus,      // one or more  ("+")
  kStar,      // zero or more ("*")
};

const char* MultiplicityToString(Multiplicity m);

/// True for "1" and "+": an inner join suffices (every parent has a child).
bool AtLeastOne(Multiplicity m);
/// True for "1" and "?": at most one child (candidate for reduction: "1").
bool AtMostOne(Multiplicity m);

/// Skolem-term variable index (p, q).
struct VarIndex {
  int p = 0;
  int q = 0;

  /// Canonical relational column name, e.g. "v2_1".
  std::string ColumnName() const {
    return "v" + std::to_string(p) + "_" + std::to_string(q);
  }
  /// Paper rendering, e.g. "(2,1)".
  std::string ToString() const {
    return "(" + std::to_string(p) + "," + std::to_string(q) + ")";
  }
  bool operator==(const VarIndex& o) const { return p == o.p && q == o.q; }
  bool operator<(const VarIndex& o) const {
    return p != o.p ? p < o.p : q < o.q;
  }
};

/// Label column name for level j, e.g. "L2".
std::string LabelColumnName(int level);

/// One atom of a datalog rule body: a table with its tuple-variable binding.
struct DatalogAtom {
  std::string table;
  std::string binding;  // the RXL tuple variable name

  bool operator==(const DatalogAtom& o) const {
    return table == o.table && binding == o.binding;
  }
};

/// A Skolem-term argument: the field it carries and its variable index.
struct SkolemArg {
  rxl::FieldRef field;
  VarIndex index;
  /// True if this argument first appears at this node (not inherited from
  /// the parent's Skolem term).
  bool own = false;
  /// True for scope-key arguments (and explicit Skolem-term arguments),
  /// which identify the node instance. Value-only arguments are
  /// functionally determined by the identity arguments and are excluded
  /// from sort keys (a safe deviation from the paper's Sec. 3.2 ordering,
  /// which lists all variables; grouping is unchanged because values are
  /// functions of the identity).
  bool identity = true;
  /// Which rule of a fused node fills this argument (0 = the primary
  /// occurrence; identity arguments are shared by every rule).
  int rule = 0;
};

struct ViewTreeNode {
  /// Content of the element template, in document order.
  struct ContentItem {
    enum class Kind { kText, kValue, kChild };
    Kind kind = Kind::kText;
    std::string text;    // kText
    VarIndex value;      // kValue: column holding the text
    int child_id = -1;   // kChild
    /// Which fused occurrence contributed this item (0 for ordinary
    /// nodes). Literal text of occurrence k is emitted only alongside a
    /// row in which occurrence k supplied at least one non-null value.
    int occurrence = 0;
  };

  /// One datalog rule of a fused node (paper Sec. 3.1: elements from
  /// different templates merge when they share a Skolem function; each
  /// occurrence contributes one rule). `fields` maps every column the rule
  /// can fill — the positional Skolem arguments plus this occurrence's own
  /// values — to the field that supplies it.
  struct Rule {
    std::vector<DatalogAtom> atoms;
    std::vector<rxl::Condition> conditions;
    std::map<VarIndex, rxl::FieldRef> fields;
  };

  int id = -1;
  int parent = -1;  // -1 for the root
  std::vector<int> children;

  std::string tag;
  std::vector<int> sfi;     // Skolem-function index, e.g. {1, 4, 2}
  std::string skolem_name;  // "S1.4.2"

  /// Datalog rule body: conjunction of all from/where clauses in scope
  /// (the first — and usually only — rule of the node).
  std::vector<DatalogAtom> atoms;
  std::vector<rxl::Condition> conditions;

  /// Additional rules of a fused node (empty for ordinary nodes). A node
  /// is "fused" when two or more element templates share its explicit
  /// Skolem function; its instance set is the union over all rules.
  std::vector<Rule> extra_rules;
  bool fused() const { return !extra_rules.empty(); }
  /// All rules including the primary one, in occurrence order.
  std::vector<Rule> AllRules() const;

  /// Skolem-term arguments in canonical order (inherited first, then own).
  std::vector<SkolemArg> args;

  std::vector<ContentItem> content;

  /// Multiplicity of the edge from the parent (root: kOne).
  Multiplicity edge_label = Multiplicity::kStar;

  int level() const { return static_cast<int>(sfi.size()); }
  int label() const { return sfi.back(); }

  /// Arguments introduced at this node (own == true).
  std::vector<SkolemArg> OwnArgs() const;
};

class ViewTree {
 public:
  /// The most edges a view tree may have: a plan is a 64-bit edge mask
  /// (Partition), and 2^|E| plans must fit in one.
  static constexpr size_t kMaxEdges = 63;

  /// Builds the view tree for an RXL view over the given catalog: merges
  /// templates, assigns Skolem functions/indices and variable indices,
  /// derives datalog rules, and labels edges from the catalog's key and
  /// referential constraints (paper Sec. 3.1 and 3.5).
  ///
  /// Restrictions (documented in DESIGN.md): the root block must construct
  /// exactly one element; explicit Skolem merging requires identical scope
  /// queries; a tree of more than kMaxEdges edges is kOutOfRange.
  static Result<ViewTree> Build(const rxl::RxlQuery& query,
                                const Catalog& catalog);

  const std::vector<ViewTreeNode>& nodes() const { return nodes_; }
  const ViewTreeNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  ViewTreeNode& mutable_node(int id) { return nodes_[static_cast<size_t>(id)]; }
  int root_id() const { return 0; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Tree edges as (parent, child) pairs, in BFS order of the child.
  std::vector<std::pair<int, int>> Edges() const;
  size_t num_edges() const { return nodes_.size() - 1; }

  /// Maximum node level (depth of the tree).
  int MaxLevel() const;

  /// All variable indices at a level, ordered by q.
  std::vector<VarIndex> VarsAtLevel(int level) const;

  /// Identity variable indices at a level, ordered by q. This is the
  /// per-level segment of the global sort-key sequence (paper Sec. 3.2).
  std::vector<VarIndex> IdentityVarsAtLevel(int level) const;

  /// True if the variable is an identity variable in some node's term.
  bool IsIdentityVar(VarIndex index) const {
    return identity_vars_.count(index) > 0;
  }

  /// Resolves a variable index back to its field ref.
  Result<rxl::FieldRef> FieldOf(VarIndex index) const;

  /// Resolves a field ref to its variable index.
  Result<VarIndex> IndexOf(const rxl::FieldRef& field) const;

  /// The catalog this tree was built against (borrowed).
  const Catalog* catalog() const { return catalog_; }

  /// Fig. 6-style rendering for debugging and the bench output.
  std::string ToString() const;

 private:
  friend class ViewTreeBuilder;

  std::vector<ViewTreeNode> nodes_;
  std::map<rxl::FieldRef, VarIndex> var_index_;
  std::map<VarIndex, rxl::FieldRef> index_field_;
  std::set<VarIndex> identity_vars_;
  const Catalog* catalog_ = nullptr;
};

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_VIEW_TREE_H_
