#include "silkroute/view_tree.h"

#include <algorithm>
#include <deque>

#include "common/string_util.h"
#include "silkroute/labeling.h"

namespace silkroute::core {

const char* MultiplicityToString(Multiplicity m) {
  switch (m) {
    case Multiplicity::kOne:
      return "1";
    case Multiplicity::kOptional:
      return "?";
    case Multiplicity::kPlus:
      return "+";
    case Multiplicity::kStar:
      return "*";
  }
  return "?";
}

bool AtLeastOne(Multiplicity m) {
  return m == Multiplicity::kOne || m == Multiplicity::kPlus;
}

bool AtMostOne(Multiplicity m) {
  return m == Multiplicity::kOne || m == Multiplicity::kOptional;
}

std::string LabelColumnName(int level) {
  return "L" + std::to_string(level);
}

std::vector<SkolemArg> ViewTreeNode::OwnArgs() const {
  std::vector<SkolemArg> out;
  for (const auto& a : args) {
    if (a.own) out.push_back(a);
  }
  return out;
}

std::vector<ViewTreeNode::Rule> ViewTreeNode::AllRules() const {
  Rule primary;
  primary.atoms = atoms;
  primary.conditions = conditions;
  for (const auto& a : args) {
    if (a.rule == 0) primary.fields[a.index] = a.field;
  }
  std::vector<Rule> rules;
  rules.reserve(extra_rules.size() + 1);
  rules.push_back(std::move(primary));
  rules.insert(rules.end(), extra_rules.begin(), extra_rules.end());
  return rules;
}

namespace {

/// Pre-BFS representation of a node while walking the RXL template.
struct RawNode {
  std::string tag;
  std::optional<rxl::SkolemTerm> explicit_skolem;
  std::vector<DatalogAtom> atoms;
  std::vector<rxl::Condition> conditions;

  struct RawContent {
    enum class Kind { kText, kValue, kChild };
    Kind kind = Kind::kText;
    std::string text;
    rxl::FieldRef value;
    size_t child = 0;    // index into children
    int occurrence = 0;  // which fused occurrence contributed this item
  };
  std::vector<RawContent> content;
  std::vector<std::unique_ptr<RawNode>> children;

  /// Additional occurrences fused into this node (same explicit Skolem
  /// function under the same parent).
  struct RawOccurrence {
    std::vector<DatalogAtom> atoms;
    std::vector<rxl::Condition> conditions;
    std::vector<rxl::FieldRef> skolem_args;
  };
  std::vector<RawOccurrence> extra_occurrences;

  bool HasElementChildren() const { return !children.empty(); }
};

struct Scope {
  std::vector<rxl::TableBinding> bindings;
  std::vector<rxl::Condition> conditions;
};

}  // namespace

class ViewTreeBuilder {
 public:
  ViewTreeBuilder(const rxl::RxlQuery& query, const Catalog& catalog)
      : query_(query), catalog_(catalog) {}

  Result<ViewTree> Build() {
    // The root block must construct exactly one element.
    const rxl::Block& root_block = query_.root;
    const rxl::Content* root_element = nullptr;
    for (const auto& c : root_block.construct) {
      if (c.kind == rxl::Content::Kind::kElement) {
        if (root_element != nullptr) {
          return Status::InvalidArgument(
              "root block constructs more than one element; wrap them in a "
              "single root element");
        }
        root_element = &c;
      } else {
        return Status::InvalidArgument(
            "root block may only construct an element");
      }
    }
    if (root_element == nullptr) {
      return Status::InvalidArgument("root block constructs no element");
    }

    Scope scope;
    SILK_RETURN_IF_ERROR(ExtendScope(root_block, &scope));
    SILK_ASSIGN_OR_RETURN(std::unique_ptr<RawNode> raw,
                          WalkElement(*root_element->element, scope));

    // BFS numbering: assign SFIs and ids level by level.
    ViewTree tree;
    tree.catalog_ = &catalog_;
    struct QueueItem {
      const RawNode* raw;
      int parent_id;
      std::vector<int> sfi;
    };
    std::deque<QueueItem> queue;
    queue.push_back({raw.get(), -1, {1}});
    std::vector<const RawNode*> raw_of_id;
    while (!queue.empty()) {
      QueueItem item = std::move(queue.front());
      queue.pop_front();
      int id = static_cast<int>(tree.nodes_.size());
      ViewTreeNode node;
      node.id = id;
      node.parent = item.parent_id;
      node.tag = item.raw->tag;
      node.sfi = item.sfi;
      node.skolem_name = item.raw->explicit_skolem
                             ? item.raw->explicit_skolem->function
                             : SkolemNameFor(item.sfi);
      node.atoms = item.raw->atoms;
      node.conditions = item.raw->conditions;
      tree.nodes_.push_back(std::move(node));
      raw_of_id.push_back(item.raw);
      if (item.parent_id >= 0) {
        tree.nodes_[static_cast<size_t>(item.parent_id)].children.push_back(id);
      }
      int child_label = 0;
      for (const auto& child : item.raw->children) {
        ++child_label;
        std::vector<int> child_sfi = item.sfi;
        child_sfi.push_back(child_label);
        queue.push_back({child.get(), id, std::move(child_sfi)});
      }
    }
    if (tree.num_edges() > ViewTree::kMaxEdges) {
      return Status::OutOfRange(
          "view tree has " + std::to_string(tree.num_edges()) +
          " edges; at most " + std::to_string(ViewTree::kMaxEdges) +
          " are supported");
    }

    // Duplicate explicit Skolem functions under the SAME parent were fused
    // during the walk; duplicates across different parents would require a
    // DAG-shaped view and stay unsupported.
    {
      std::map<std::string, int> seen;
      for (const auto& n : tree.nodes_) {
        auto [it, inserted] = seen.emplace(n.skolem_name, n.id);
        if (!inserted) {
          return Status::Unimplemented(
              "Skolem function '" + n.skolem_name +
              "' is shared by elements under different parents; fusion is "
              "only supported for sibling occurrences");
        }
      }
    }

    // Assign Skolem-term arguments, variable indices, rules, and content in
    // BFS (=id) order.
    std::map<int, int> next_q_at_level;
    for (size_t i = 0; i < tree.nodes_.size(); ++i) {
      ViewTreeNode& node = tree.nodes_[i];
      const RawNode* rn = raw_of_id[i];
      SILK_RETURN_IF_ERROR(
          AssignArgsAndContent(rn, &node, &tree, &next_q_at_level));
    }

    SILK_RETURN_IF_ERROR(LabelEdges(catalog_, &tree));
    return tree;
  }

 private:
  static std::string SkolemNameFor(const std::vector<int>& sfi) {
    std::string name = "S";
    for (size_t i = 0; i < sfi.size(); ++i) {
      if (i > 0) name += ".";
      name += std::to_string(sfi[i]);
    }
    return name;
  }

  Status ExtendScope(const rxl::Block& block, Scope* scope) const {
    for (const auto& b : block.from) {
      if (!catalog_.HasTable(b.table)) {
        return Status::NotFound("RXL references unknown table '" + b.table +
                                "'");
      }
      for (const auto& existing : scope->bindings) {
        if (existing.var == b.var) {
          return Status::InvalidArgument("tuple variable '$" + b.var +
                                         "' shadows an outer binding");
        }
      }
      scope->bindings.push_back(b);
    }
    for (const auto& c : block.where) {
      SILK_RETURN_IF_ERROR(CheckCondition(c, *scope));
      scope->conditions.push_back(c);
    }
    return Status::OK();
  }

  Status CheckFieldRef(const rxl::FieldRef& ref, const Scope& scope) const {
    for (const auto& b : scope.bindings) {
      if (b.var == ref.var) {
        SILK_ASSIGN_OR_RETURN(const TableSchema* schema,
                              catalog_.GetTable(b.table));
        if (!schema->HasColumn(ref.field)) {
          return Status::NotFound("table '" + b.table + "' has no column '" +
                                  ref.field + "' (in " + ref.ToString() + ")");
        }
        return Status::OK();
      }
    }
    return Status::NotFound("unbound tuple variable in " + ref.ToString());
  }

  Status CheckCondition(const rxl::Condition& c, const Scope& scope) const {
    if (c.lhs.kind == rxl::Operand::Kind::kField) {
      SILK_RETURN_IF_ERROR(CheckFieldRef(c.lhs.field, scope));
    }
    if (c.rhs.kind == rxl::Operand::Kind::kField) {
      SILK_RETURN_IF_ERROR(CheckFieldRef(c.rhs.field, scope));
    }
    return Status::OK();
  }

  Result<std::unique_ptr<RawNode>> WalkElement(const rxl::Element& element,
                                               const Scope& scope) {
    auto node = std::make_unique<RawNode>();
    node->tag = element.tag;
    node->explicit_skolem = element.skolem;
    for (const auto& b : scope.bindings) {
      node->atoms.push_back({b.table, b.var});
    }
    node->conditions = scope.conditions;
    if (element.skolem) {
      for (const auto& arg : element.skolem->args) {
        SILK_RETURN_IF_ERROR(CheckFieldRef(arg, scope));
      }
    }
    SILK_RETURN_IF_ERROR(WalkContents(element.content, scope, node.get(),
                                      /*block_level=*/false));
    return node;
  }

  /// Walks content items into `node`. `block_level` is true when the items
  /// come from a nested block's construct clause, where only elements and
  /// further nested blocks are allowed (a bare value there would be a
  /// repeated text node, which RXL's data model does not produce).
  Status WalkContents(const std::vector<rxl::Content>& contents,
                      const Scope& scope, RawNode* node, bool block_level) {
    for (const auto& c : contents) {
      switch (c.kind) {
        case rxl::Content::Kind::kText: {
          if (block_level) {
            return Status::Unimplemented(
                "nested blocks may only construct elements");
          }
          RawNode::RawContent item;
          item.kind = RawNode::RawContent::Kind::kText;
          item.text = c.text;
          node->content.push_back(std::move(item));
          break;
        }
        case rxl::Content::Kind::kFieldRef: {
          if (block_level) {
            return Status::Unimplemented(
                "nested blocks may only construct elements");
          }
          SILK_RETURN_IF_ERROR(CheckFieldRef(c.field, scope));
          RawNode::RawContent item;
          item.kind = RawNode::RawContent::Kind::kValue;
          item.value = c.field;
          node->content.push_back(std::move(item));
          break;
        }
        case rxl::Content::Kind::kElement: {
          SILK_ASSIGN_OR_RETURN(std::unique_ptr<RawNode> child,
                                WalkElement(*c.element, scope));
          SILK_RETURN_IF_ERROR(AddChild(node, std::move(child)));
          break;
        }
        case rxl::Content::Kind::kBlock: {
          // Parallel sibling blocks: extend the scope and attach the
          // block's elements (and the elements of blocks nested inside it)
          // as children of the current element.
          Scope inner = scope;
          SILK_RETURN_IF_ERROR(ExtendScope(*c.block, &inner));
          SILK_RETURN_IF_ERROR(WalkContents(c.block->construct, inner, node,
                                            /*block_level=*/true));
          break;
        }
      }
    }
    return Status::OK();
  }

  /// Attaches `child` to `node`, fusing it into an existing sibling that
  /// shares its explicit Skolem function (paper Sec. 3.1).
  Status AddChild(RawNode* node, std::unique_ptr<RawNode> child) {
    if (child->explicit_skolem) {
      for (auto& sibling : node->children) {
        if (sibling->explicit_skolem &&
            sibling->explicit_skolem->function ==
                child->explicit_skolem->function) {
          return FuseInto(sibling.get(), std::move(child));
        }
      }
    }
    RawNode::RawContent item;
    item.kind = RawNode::RawContent::Kind::kChild;
    item.child = node->children.size();
    node->children.push_back(std::move(child));
    node->content.push_back(std::move(item));
    return Status::OK();
  }

  /// Merges a second occurrence of a Skolem function into `target`.
  /// Restrictions keep fusion tree-shaped and streamable: same tag, equal
  /// Skolem arity, and text/value content only on both sides.
  Status FuseInto(RawNode* target, std::unique_ptr<RawNode> dup) {
    const std::string& fn = target->explicit_skolem->function;
    if (target->tag != dup->tag) {
      return Status::InvalidArgument(
          "fused Skolem function '" + fn + "' used with different tags <" +
          target->tag + "> and <" + dup->tag + ">");
    }
    if (target->explicit_skolem->args.size() !=
        dup->explicit_skolem->args.size()) {
      return Status::InvalidArgument("fused Skolem function '" + fn +
                                     "' used with different arities");
    }
    if (target->HasElementChildren() || dup->HasElementChildren()) {
      return Status::Unimplemented(
          "fused element '" + fn +
          "' may only contain text and values, not child elements");
    }
    const int occurrence =
        static_cast<int>(target->extra_occurrences.size()) + 1;
    target->extra_occurrences.push_back(
        {dup->atoms, dup->conditions, dup->explicit_skolem->args});
    for (auto& rc : dup->content) {
      rc.occurrence = occurrence;
      target->content.push_back(std::move(rc));
    }
    return Status::OK();
  }

  /// Computes the node's Skolem-term arguments (keys of all in-scope tuple
  /// variables, or the explicit Skolem args, then contained values),
  /// assigns (p, q) indices to first appearances, builds the rules of a
  /// fused node, and wires the content items.
  Status AssignArgsAndContent(const RawNode* raw, ViewTreeNode* node,
                              ViewTree* tree,
                              std::map<int, int>* next_q_at_level) {
    // Identity fields first (scope keys, explicit Skolem args), then
    // occurrence-0 value fields.
    std::vector<rxl::FieldRef> arg_fields;
    std::vector<bool> is_identity;
    auto add_field = [&](const rxl::FieldRef& f, bool identity) {
      auto it = std::find(arg_fields.begin(), arg_fields.end(), f);
      if (it != arg_fields.end()) {
        size_t i = static_cast<size_t>(it - arg_fields.begin());
        is_identity[i] = is_identity[i] || identity;
        return;
      }
      arg_fields.push_back(f);
      is_identity.push_back(identity);
    };
    if (raw->explicit_skolem) {
      // An explicit Skolem term overrides the automatic argument list: the
      // user controls how instances are grouped (paper Sec. 3.1).
      for (const auto& a : raw->explicit_skolem->args) {
        add_field(a, /*identity=*/true);
      }
    } else {
      for (const auto& atom : raw->atoms) {
        SILK_ASSIGN_OR_RETURN(const TableSchema* schema,
                              catalog_.GetTable(atom.table));
        if (schema->has_primary_key()) {
          for (const auto& k : schema->primary_key()) {
            add_field({atom.binding, k}, /*identity=*/true);
          }
        } else {
          for (const auto& col : schema->columns()) {
            add_field({atom.binding, col.name}, /*identity=*/true);
          }
        }
      }
    }
    for (const auto& rc : raw->content) {
      if (rc.kind == RawNode::RawContent::Kind::kValue &&
          rc.occurrence == 0) {
        add_field(rc.value, /*identity=*/false);
      }
    }

    const std::vector<SkolemArg>* parent_args = nullptr;
    if (node->parent >= 0) {
      parent_args = &tree->nodes_[static_cast<size_t>(node->parent)].args;
    }
    auto index_of = [&](const rxl::FieldRef& field) {
      auto it = tree->var_index_.find(field);
      if (it != tree->var_index_.end()) return it->second;
      VarIndex index;
      index.p = node->level();
      index.q = ++(*next_q_at_level)[index.p];
      tree->var_index_.emplace(field, index);
      tree->index_field_.emplace(index, field);
      return index;
    };
    for (size_t fi = 0; fi < arg_fields.size(); ++fi) {
      const auto& field = arg_fields[fi];
      SkolemArg arg;
      arg.field = field;
      arg.identity = is_identity[fi];
      arg.index = index_of(field);
      if (arg.identity) tree->identity_vars_.insert(arg.index);
      arg.own = true;
      if (parent_args != nullptr) {
        for (const auto& pa : *parent_args) {
          if (pa.field == field) {
            arg.own = false;
            break;
          }
        }
      }
      node->args.push_back(std::move(arg));
    }

    // An explicit Skolem term must still carry the parent's identity, or
    // the generated joins and the stream merge could not align instances
    // with their parent elements.
    if (raw->explicit_skolem && parent_args != nullptr) {
      for (const auto& pa : *parent_args) {
        if (!pa.identity) continue;
        bool covered = false;
        for (const auto& a : node->args) {
          if (a.identity && a.index == pa.index) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          return Status::InvalidArgument(
              "explicit Skolem term '" + node->skolem_name +
              "' must include the parent's Skolem argument " +
              pa.field.ToString());
        }
      }
    }

    // Ordered identity args (positional view for fused occurrences).
    std::vector<const SkolemArg*> identity_args;
    for (const auto& a : node->args) {
      if (a.identity) identity_args.push_back(&a);
    }

    // Rules for fused occurrences: positional identity mapping plus this
    // occurrence's own value columns.
    std::map<std::pair<int, std::string>, VarIndex> value_index;
    for (int k = 0; k < static_cast<int>(raw->extra_occurrences.size());
         ++k) {
      const auto& occ = raw->extra_occurrences[static_cast<size_t>(k)];
      ViewTreeNode::Rule rule;
      rule.atoms = occ.atoms;
      rule.conditions = occ.conditions;
      if (occ.skolem_args.size() != identity_args.size()) {
        return Status::InvalidArgument(
            "fused Skolem function '" + node->skolem_name +
            "' used with different arities");
      }
      for (size_t i = 0; i < occ.skolem_args.size(); ++i) {
        rule.fields[identity_args[i]->index] = occ.skolem_args[i];
      }
      for (const auto& rc : raw->content) {
        if (rc.kind != RawNode::RawContent::Kind::kValue ||
            rc.occurrence != k + 1) {
          continue;
        }
        VarIndex index = index_of(rc.value);
        value_index[{rc.occurrence, rc.value.ToString()}] = index;
        rule.fields[index] = rc.value;
        SkolemArg arg;
        arg.field = rc.value;
        arg.index = index;
        arg.identity = false;
        arg.own = true;
        arg.rule = k + 1;
        node->args.push_back(std::move(arg));
      }
      node->extra_rules.push_back(std::move(rule));
    }

    // Wire content items (children are known: BFS numbering ran first).
    size_t next_child = 0;
    for (const auto& rc : raw->content) {
      ViewTreeNode::ContentItem item;
      item.occurrence = rc.occurrence;
      switch (rc.kind) {
        case RawNode::RawContent::Kind::kText:
          item.kind = ViewTreeNode::ContentItem::Kind::kText;
          item.text = rc.text;
          break;
        case RawNode::RawContent::Kind::kValue: {
          item.kind = ViewTreeNode::ContentItem::Kind::kValue;
          auto local = value_index.find({rc.occurrence, rc.value.ToString()});
          if (local != value_index.end()) {
            item.value = local->second;
          } else {
            auto vi = tree->var_index_.find(rc.value);
            if (vi == tree->var_index_.end()) {
              return Status::Internal("value variable not indexed: " +
                                      rc.value.ToString());
            }
            item.value = vi->second;
          }
          break;
        }
        case RawNode::RawContent::Kind::kChild:
          item.kind = ViewTreeNode::ContentItem::Kind::kChild;
          item.child_id = node->children[next_child++];
          break;
      }
      node->content.push_back(std::move(item));
    }
    return Status::OK();
  }

  const rxl::RxlQuery& query_;
  const Catalog& catalog_;
};

Result<ViewTree> ViewTree::Build(const rxl::RxlQuery& query,
                                 const Catalog& catalog) {
  ViewTreeBuilder builder(query, catalog);
  return builder.Build();
}

std::vector<std::pair<int, int>> ViewTree::Edges() const {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (n.parent >= 0) edges.emplace_back(n.parent, n.id);
  }
  return edges;
}

int ViewTree::MaxLevel() const {
  int max_level = 0;
  for (const auto& n : nodes_) max_level = std::max(max_level, n.level());
  return max_level;
}

std::vector<VarIndex> ViewTree::VarsAtLevel(int level) const {
  std::vector<VarIndex> out;
  for (const auto& [index, field] : index_field_) {
    if (index.p == level) out.push_back(index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VarIndex> ViewTree::IdentityVarsAtLevel(int level) const {
  std::vector<VarIndex> out;
  for (const auto& index : identity_vars_) {
    if (index.p == level) out.push_back(index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<rxl::FieldRef> ViewTree::FieldOf(VarIndex index) const {
  auto it = index_field_.find(index);
  if (it == index_field_.end()) {
    return Status::NotFound("no variable with index " + index.ToString());
  }
  return it->second;
}

Result<VarIndex> ViewTree::IndexOf(const rxl::FieldRef& field) const {
  auto it = var_index_.find(field);
  if (it == var_index_.end()) {
    return Status::NotFound("no variable index for " + field.ToString());
  }
  return it->second;
}

std::string ViewTree::ToString() const {
  std::string out;
  // Pre-order walk so children print under their parent.
  std::vector<int> stack = {0};
  while (!stack.empty()) {
    const ViewTreeNode& n = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    out += std::string(static_cast<size_t>(n.level() - 1) * 2, ' ');
    out += "<" + n.tag + "> " + n.skolem_name + "(";
    std::vector<std::string> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) {
      args.push_back(a.field.field + a.index.ToString());
    }
    out += Join(args, ", ") + ")";
    if (n.parent >= 0) {
      out += "  [" + std::string(MultiplicityToString(n.edge_label)) + "]";
    }
    out += "\n";
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

}  // namespace silkroute::core
