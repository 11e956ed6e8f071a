#include "silkroute/tagger.h"

#include <algorithm>

#include "engine/key_codec.h"

namespace silkroute::core {

using engine::WireField;

namespace {
void EncodeField(const WireField& f, std::string* out) {
  if (f.kind == WireField::Kind::kInt64) return engine::EncodeInt64(f.i, out);
  if (f.kind == WireField::Kind::kDouble) return engine::EncodeDouble(f.d, out);
  if (f.kind == WireField::Kind::kString) return engine::EncodeString(f.s, out);
  engine::EncodeValue(Value::Null(), out);
}

Status WriteValue(const WireField& v, xml::XmlWriter* writer) {
  if (v.kind == WireField::Kind::kNull) return Status::OK();
  char buf[kNumberTextMax];
  return writer->Text(v.kind == WireField::Kind::kString ? v.s
                      : v.kind == WireField::Kind::kInt64
                          ? Int64XmlText(v.i, buf)
                          : DoubleXmlText(v.d, buf));
}
}  // namespace

/// One stream's cursor. Each InstanceSpec owns one slot for a captured
/// instance waiting to be merged: the tagger's "constant memory" is one
/// tuple per stream plus one captured instance per view-tree node.
struct Tagger::StreamState {
  /// An InstanceSpec resolved against this stream's columns, and its slot.
  struct Instance {
    const InstanceSpec* spec = nullptr;
    std::vector<std::pair<size_t, int64_t>> label_checks;  // (column, label)
    std::vector<size_t> null_cols;
    std::vector<int> key_cols;            // per key position: column or -1
    std::vector<std::string> key_consts;  // encoding where key_cols is -1
    std::vector<int> value_cols;          // per kValue item: column or -1
    Key key;  // last captured key (duplicate suppression); empty if none
    bool pending = false;  // `key` and `values` wait to be merged
    std::vector<WireField> values;  // views into the wire buffer
  };

  engine::TupleStream* stream = nullptr;
  std::vector<Instance> instances;

  std::vector<WireField> row;  // current physical row, read in place
  bool rows_done = false;
  size_t cursor = 0;  // next InstanceSpec to try on `row`; at end: fetch
  // Key of instance `cursor`, kept across a stall instead of re-encoded.
  Key staged;
  bool staged_valid = false;
  size_t live = 0;  // pending slots

  bool Present(const Instance& inst) const {
    for (const auto& [col, label] : inst.label_checks) {
      if (row[col].kind != WireField::Kind::kInt64 || row[col].i != label) {
        return false;
      }
    }
    for (size_t col : inst.null_cols) {
      if (row[col].kind != WireField::Kind::kNull) return false;
    }
    return true;
  }

  void EncodeStagedKey(const Instance& inst) {
    staged.bytes.clear();
    staged.bounds.assign(1, 0);
    for (size_t p = 0; p < inst.key_cols.size(); ++p) {
      const int col = inst.key_cols[p];
      if (col < 0) {
        staged.bytes += inst.key_consts[p];
      } else {
        EncodeField(row[static_cast<size_t>(col)], &staged.bytes);
      }
      staged.bounds.push_back(static_cast<uint32_t>(staged.bytes.size()));
    }
  }
};

Tagger::Tagger(const ViewTree* tree, xml::XmlWriter* writer, Options options)
    : tree_(tree), writer_(writer), options_(std::move(options)) {
  size_t pos = 0;
  for (int j = 1; j <= tree_->MaxLevel(); ++j) {
    label_position_.push_back(pos++);
    for (const auto& v : tree_->IdentityVarsAtLevel(j)) {
      var_position_.emplace(v, pos++);
    }
  }
  num_positions_ = pos;

  nodes_.resize(tree_->num_nodes());
  for (const ViewTreeNode& node : tree_->nodes()) {
    NodeInfo& info = nodes_[static_cast<size_t>(node.id)];
    for (int id = node.id; id >= 0; id = tree_->node(id).parent) {
      info.chain.push_back(id);
    }
    std::reverse(info.chain.begin(), info.chain.end());
    // Two stack entries of the same node share the node's labels by
    // construction, so its identity variables alone tell instances apart.
    for (const auto& arg : node.args) {
      auto it = var_position_.find(arg.index);
      if (arg.identity && it != var_position_.end()) {
        info.id_positions.push_back(it->second);
      }
    }
    for (const auto& item : node.content) {
      if (item.kind == ViewTreeNode::ContentItem::Kind::kValue) {
        info.value_identity.push_back(tree_->IsIdentityVar(item.value));
      }
    }
  }
}

Tagger::~Tagger() = default;

/// Fills pending slots by expanding physical rows, stopping when a slot it
/// needs is still occupied (the occupied instance sorts no later, so the
/// merge will drain it first) or when rows run out.
Status Tagger::Refill(uint32_t stream_index) {
  StreamState& s = streams_[stream_index];
  while (true) {
    if (s.cursor == s.instances.size()) {
      if (s.rows_done) return Status::OK();
      SILK_ASSIGN_OR_RETURN(bool fetched, s.stream->NextFields(&s.row));
      s.rows_done = !fetched;
      if (s.rows_done) return Status::OK();
      s.cursor = 0;
      ++stats_.rows_consumed;
    }
    for (; s.cursor < s.instances.size(); ++s.cursor) {
      StreamState::Instance& inst = s.instances[s.cursor];
      if (!s.staged_valid) {
        if (!s.Present(inst)) continue;
        s.EncodeStagedKey(inst);
        s.staged_valid = true;
      }
      // Fused instances must pass through equal-key repeats: each rule's
      // row contributes values that merge into the one element.
      if (!inst.spec->fused && inst.key.bytes == s.staged.bytes) {
        ++stats_.duplicates_skipped;
        s.staged_valid = false;
        continue;
      }
      // Slot occupied by an earlier (no-later-sorting) instance: stall
      // this row until the merge drains the slot.
      if (inst.pending) return Status::OK();
      std::swap(inst.key, s.staged);
      s.staged_valid = false;
      inst.pending = true;
      inst.values.clear();
      for (int col : inst.value_cols) {
        inst.values.push_back(col >= 0 ? s.row[static_cast<size_t>(col)]
                                       : WireField{});
      }
      heap_.emplace_back(stream_index, static_cast<uint32_t>(s.cursor));
      std::push_heap(heap_.begin(), heap_.end(), SlotAfter{this});
      stats_.peak_buffered_tuples =
          std::max(stats_.peak_buffered_tuples, ++s.live);
    }
  }
}

/// Heap order: key bytes, then stream index, then slot index — the first
/// stream, and within it the first InstanceSpec, wins a key tie.
bool Tagger::SlotAfter::operator()(const Slot& a, const Slot& b) const {
  const int c = tagger->streams_[a.first].instances[a.second].key.bytes.compare(
      tagger->streams_[b.first].instances[b.second].key.bytes);
  return c != 0 ? c > 0 : a > b;
}

Status Tagger::EmitRowContent(const ViewTreeNode& node,
                              const std::vector<WireField>* values,
                              bool opening) {
  const NodeInfo& info = nodes_[static_cast<size_t>(node.id)];
  // Which fused occurrences does this row speak for? Those that supplied a
  // non-null value through a column of their own — shared identity columns
  // (e.g. the fused key itself used as a value) are filled by every rule
  // and don't mark an occurrence active. Ordinary nodes always emit text.
  auto active = [&](int occurrence) {
    size_t v = 0;
    for (const auto& item : node.content) {
      if (item.kind != ViewTreeNode::ContentItem::Kind::kValue) continue;
      if (item.occurrence == occurrence && values != nullptr &&
          (*values)[v].kind != WireField::Kind::kNull &&
          !info.value_identity[v]) {
        return true;
      }
      ++v;
    }
    return false;
  };
  size_t value_index = 0;
  for (const auto& item : node.content) {
    switch (item.kind) {
      case ViewTreeNode::ContentItem::Kind::kText:
        if (!node.fused() || active(item.occurrence)) {
          SILK_RETURN_IF_ERROR(writer_->Text(item.text));
        }
        break;
      case ViewTreeNode::ContentItem::Kind::kValue:
        // Identity-backed values (shared across rules) print once, when
        // the element opens; rule-specific values print with their row.
        if (values != nullptr &&
            (opening || !node.fused() || !info.value_identity[value_index])) {
          SILK_RETURN_IF_ERROR(WriteValue((*values)[value_index], writer_));
        }
        ++value_index;
        break;
      case ViewTreeNode::ContentItem::Kind::kChild:
        break;  // children arrive as their own instances
    }
  }
  return Status::OK();
}

Status Tagger::OpenElement_(int node_id, const Key& key,
                            const std::vector<WireField>* values) {
  const ViewTreeNode& node = tree_->node(node_id);
  SILK_RETURN_IF_ERROR(writer_->StartElement(node.tag));
  SILK_RETURN_IF_ERROR(EmitRowContent(node, values, /*opening=*/true));
  if (depth_ == stack_.size()) stack_.emplace_back();
  OpenElement& open = stack_[depth_++];
  open.node_id = node_id;
  open.key = key;  // reuses the entry's buffers
  stats_.max_open_depth = std::max(stats_.max_open_depth, depth_);
  ++stats_.instances_emitted;
  return Status::OK();
}

Status Tagger::EmitInstance(int node_id, const Key& key,
                            const std::vector<WireField>* values) {
  // Longest open-stack prefix matching the ancestor chain: node + identity.
  const std::vector<int>& chain = nodes_[static_cast<size_t>(node_id)].chain;
  size_t keep = 0;
  for (; keep < depth_ && keep < chain.size(); ++keep) {
    const OpenElement& open = stack_[keep];
    if (open.node_id != chain[keep]) break;
    const auto& positions =
        nodes_[static_cast<size_t>(chain[keep])].id_positions;
    if (!std::all_of(positions.begin(), positions.end(), [&](size_t p) {
          return open.key.Position(p) == key.Position(p);
        })) {
      break;
    }
  }
  if (keep == chain.size()) {
    const ViewTreeNode& node = tree_->node(node_id);
    if (node.fused() && values != nullptr) {
      // Fusion: the element is already open; append this rule's content
      // (its literal text and non-null rule-specific values).
      return EmitRowContent(node, values, /*opening=*/false);
    }
    // Otherwise the instance (and its whole ancestor chain) is already
    // open: a duplicate.
    ++stats_.duplicates_skipped;
    return Status::OK();
  }
  for (; depth_ > keep; --depth_) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  // Open any missing ancestors (should not happen — ancestors' own
  // instances sort first in the merged stream).
  for (size_t i = keep; i + 1 < chain.size(); ++i) {
    ++stats_.forced_ancestor_opens;
    SILK_RETURN_IF_ERROR(OpenElement_(chain[i], key, nullptr));
    --stats_.instances_emitted;  // forced opens are not real instances
  }
  return OpenElement_(node_id, key, values);
}

Status Tagger::Run(std::vector<StreamInput> inputs) {
  std::string null_key;
  engine::EncodeValue(Value::Null(), &null_key);
  streams_.resize(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    StreamState& s = streams_[i];
    s.stream = inputs[i].stream;
    // The stream's column of a label or variable, or -1 if it has none.
    auto column = [&](const std::string& name) {
      auto idx = s.stream->schema().Resolve("", name);
      return idx.ok() ? static_cast<int>(*idx) : -1;
    };
    for (const InstanceSpec& spec : inputs[i].spec->instances) {
      StreamState::Instance& inst = s.instances.emplace_back();
      inst.spec = &spec;
      // A level with no label column is constant: it matches.
      for (const auto& [level, expected] : spec.label_checks) {
        const int col = column(LabelColumnName(level));
        if (col >= 0) inst.label_checks.emplace_back(col, expected);
      }
      for (int level : spec.null_levels) {
        const int col = column(LabelColumnName(level));
        if (col >= 0) inst.null_cols.push_back(static_cast<size_t>(col));
      }
      // Key sources: the path labels up to the node's level and the key
      // vars the stream carries; every other position is NULL.
      inst.key_cols.assign(num_positions_, -1);
      inst.key_consts.assign(num_positions_, null_key);
      for (size_t j = 0; j < spec.path_labels.size(); ++j) {
        std::string& label = inst.key_consts[label_position_[j]];
        label.clear();
        engine::EncodeInt64(spec.path_labels[j], &label);
      }
      for (const auto& v : spec.key_vars) {
        auto pos = var_position_.find(v);
        if (pos != var_position_.end()) {
          inst.key_cols[pos->second] = column(v.ColumnName());
        }
      }
      for (const auto& item : tree_->node(spec.node_id).content) {
        if (item.kind == ViewTreeNode::ContentItem::Kind::kValue) {
          inst.value_cols.push_back(column(item.value.ColumnName()));
        }
      }
    }
    s.cursor = s.instances.size();  // no row yet
    SILK_RETURN_IF_ERROR(Refill(static_cast<uint32_t>(i)));
  }

  if (!options_.document_element.empty()) {
    SILK_RETURN_IF_ERROR(writer_->StartElement(options_.document_element));
  }

  // Drain the smallest pending instance; refill only the stream it came
  // from, which is the only one whose slots changed.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), SlotAfter{this});
    const Slot next = heap_.back();
    heap_.pop_back();
    StreamState& s = streams_[next.first];
    StreamState::Instance& inst = s.instances[next.second];
    inst.pending = false;
    --s.live;
    SILK_RETURN_IF_ERROR(
        EmitInstance(inst.spec->node_id, inst.key, &inst.values));
    SILK_RETURN_IF_ERROR(Refill(next.first));
  }

  for (; depth_ > 0; --depth_) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  if (!options_.document_element.empty()) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  return Status::OK();
}

}  // namespace silkroute::core
