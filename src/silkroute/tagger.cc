#include "silkroute/tagger.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "common/lanes.h"
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

/// A key cell's word (engine::NumericKeyWord; NULL is 0, so 3 meets 3.0
/// and -0.0 meets 0.0). False for a cell no word carries: a string, a
/// magnitude at or above 2^53, and the NaN whose image is 0.
bool FieldWord(const WireField& f, uint64_t* word) {
  switch (f.kind) {
    case WireField::Kind::kNull:
      *word = 0;
      return true;
    case WireField::Kind::kInt64:
      return engine::NumericKeyWord(engine::Int64Segment(f.i), word);
    case WireField::Kind::kDouble:
      return engine::NumericKeyWord(engine::DoubleSegment(f.d), word);
    case WireField::Kind::kString:
      break;
  }
  return false;
}

/// Runs fn(i) for every i < n: fn(0) on the calling thread, each other
/// index on a thread of its own, all joined before it returns.
template <typename Fn>
void RunConcurrently(size_t n, const Fn& fn) {
  std::vector<std::jthread> pool;  // joins on every exit path
  for (size_t i = 1; i < n; ++i) pool.emplace_back([&fn, i] { fn(i); });
  if (n > 0) fn(0);
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

/// An InstanceSpec resolved against its stream's columns, once per Run and
/// shared read-only by every range.
struct Tagger::Source {
  const InstanceSpec* spec = nullptr;
  std::vector<std::pair<size_t, int64_t>> label_checks;  // (column, label)
  std::vector<size_t> null_cols;
  std::vector<int> key_cols;            // per key position: column or -1
  std::vector<std::string> key_consts;  // encoding where key_cols is -1
  std::vector<uint64_t> key_words;      // word where key_cols is -1
  bool const_words = true;              // every constant has a word
  std::vector<int> value_cols;          // per kValue item: column or -1

  bool Present(const std::vector<WireField>& row) const {
    for (const auto& [col, label] : label_checks) {
      if (row[col].kind != WireField::Kind::kInt64 || row[col].i != label) {
        return false;
      }
    }
    for (size_t col : null_cols) {
      if (row[col].kind != WireField::Kind::kNull) return false;
    }
    return true;
  }

  /// Writes the word of every key position read from `row` to out[p].
  /// False at the first cell no word carries.
  bool KeyWords(const std::vector<WireField>& row, uint64_t* out) const {
    if (!const_words) return false;
    for (size_t p = 0; p < key_cols.size(); ++p) {
      const int col = key_cols[p];
      if (col < 0) {
        out[p] = key_words[p];
      } else if (!FieldWord(row[static_cast<size_t>(col)], &out[p])) {
        return false;
      }
    }
    return true;
  }

  /// Appends the encodings of key positions [0, positions) read from `row`.
  void EncodeKey(const std::vector<WireField>& row, size_t positions,
                 std::string* out, std::vector<uint32_t>* bounds) const {
    for (size_t p = 0; p < positions; ++p) {
      const int col = key_cols[p];
      if (col < 0) {
        *out += key_consts[p];
      } else {
        EncodeField(row[static_cast<size_t>(col)], out);
      }
      if (bounds != nullptr) {
        bounds->push_back(static_cast<uint32_t>(out->size()));
      }
    }
  }
};

/// One range's merge over one slice per stream: a cursor per stream, the
/// heap of pending instances and the open-element stack, writing to the
/// caller's writer (range 0) or its own detached one. Each InstanceSpec
/// owns one slot for a captured instance waiting to be merged: the
/// tagger's "constant memory" is one tuple per stream plus one captured
/// instance per view-tree node, per range. Cache-line aligned: ranges run
/// on different threads and must not share a line they write.
class alignas(64) Tagger::Range {
 public:
  Range(const Tagger* tagger, xml::XmlWriter* writer)
      : t_(tagger), writer_(writer) {}
  Range(const Tagger* tagger, const xml::XmlWriter::Continuation& resume)
      : t_(tagger), detached_(std::in_place, resume), writer_(&*detached_) {}

  /// Merges and tags the streams (stream i resolved by `sources[i]`) and
  /// closes every element it opened.
  Status Run(const std::vector<std::vector<Source>>& sources,
             const std::vector<engine::TupleStream*>& streams);

  xml::XmlWriter* writer() { return writer_; }
  const TaggerStats& stats() const { return stats_; }

 private:
  /// A source's slot: its last captured instance.
  struct Captured {
    Key key;  // last captured key (duplicate suppression); empty if none
    bool pending = false;  // `key` and `values` wait to be merged
    // Views into the stream's bytes, or into `owned` once the stream's
    // window moved on while the slot waited (OwnPendingValues).
    std::vector<WireField> values;
    std::string owned;
    bool values_owned = false;
  };

  struct StreamState {
    const std::vector<Source>* sources = nullptr;
    engine::TupleStream* stream = nullptr;
    std::vector<Captured> slots;  // one per source

    std::vector<WireField> row;  // current physical row, read in place
    bool rows_done = false;
    size_t cursor = 0;  // next source to try on `row`; at end: fetch
    // Key of source `cursor`, kept across a stall instead of re-encoded.
    Key staged;
    bool staged_valid = false;
    size_t live = 0;  // pending slots
  };

  /// One open-element stack entry.
  struct OpenElement {
    int node_id = -1;
    Key key;
  };

  /// A heap entry: (stream index, slot index) of a pending instance.
  using Slot = std::pair<uint32_t, uint32_t>;
  struct SlotAfter {  // heap order
    const Range* range;
    bool operator()(const Slot& a, const Slot& b) const;
  };
  const Key& KeyOf(const Slot& slot) const {
    return streams_[slot.first].slots[slot.second].key;
  }

  // Key order, equality and position equality, on words or on bytes.
  int Compare(const Key& a, const Key& b) const;
  bool Same(const Key& a, const Key& b) const {
    return on_bytes_ ? a.bytes == b.bytes : a.words == b.words;
  }
  bool SamePosition(const Key& a, const Key& b, size_t p) const {
    return on_bytes_ ? a.Position(p) == b.Position(p)
                     : a.words[p] == b.words[p];
  }
  /// Moves the range onto codec bytes for good, rewriting every live key.
  void SwitchToBytes();

  Status Refill(uint32_t stream_index);
  /// Copies the strings of the stream's pending slots into the slots, so
  /// that binding its next window cannot pull them from under the merge.
  static void OwnPendingValues(StreamState* s);
  Status EmitInstance(int node_id, const Key& key,
                      const std::vector<WireField>* values);
  Status EmitRowContent(const ViewTreeNode& node,
                        const std::vector<WireField>* values, bool opening);
  Status OpenElement_(int node_id, const Key& key,
                      const std::vector<WireField>* values);

  const Tagger* t_;
  std::optional<xml::XmlWriter> detached_;
  xml::XmlWriter* writer_;
  TaggerStats stats_;
  std::vector<StreamState> streams_;
  std::vector<Slot> heap_;  // pending instances, min-heap by SlotAfter
  // Entries past depth_ keep their buffers for reuse.
  std::vector<OpenElement> stack_;
  size_t depth_ = 0;
  bool on_bytes_ = false;  // keys are codec bytes, not words
};

Tagger::Tagger(const ViewTree* tree, xml::XmlWriter* writer, Options options)
    : tree_(tree), writer_(writer), options_(std::move(options)) {
  size_t pos = 0;
  for (int j = 1; j <= tree_->MaxLevel(); ++j) {
    label_position_.push_back(pos++);
    for (const auto& v : tree_->IdentityVarsAtLevel(j)) {
      var_position_.emplace(v, pos++);
    }
    if (j == 1) root_positions_ = pos;
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
Status Tagger::Range::Refill(uint32_t stream_index) {
  StreamState& s = streams_[stream_index];
  const std::vector<Source>& sources = *s.sources;
  while (true) {
    if (s.cursor == sources.size()) {
      if (s.rows_done) return Status::OK();
      if (s.live > 0 && s.stream->window_spent()) OwnPendingValues(&s);
      SILK_ASSIGN_OR_RETURN(bool fetched, s.stream->NextFields(&s.row));
      s.rows_done = !fetched;
      if (s.rows_done) return Status::OK();
      s.cursor = 0;
      ++stats_.rows_consumed;
    }
    for (; s.cursor < sources.size(); ++s.cursor) {
      const Source& source = sources[s.cursor];
      Captured& slot = s.slots[s.cursor];
      if (!s.staged_valid) {
        if (!source.Present(s.row)) continue;
        if (!on_bytes_) {
          s.staged.words.resize(t_->num_positions_);
          if (!source.KeyWords(s.row, s.staged.words.data())) {
            SwitchToBytes();
          }
        }
        if (on_bytes_) {
          s.staged.bytes.clear();
          s.staged.bounds.assign(1, 0);
          source.EncodeKey(s.row, t_->num_positions_, &s.staged.bytes,
                           &s.staged.bounds);
        }
        s.staged_valid = true;
      }
      // Fused instances must pass through equal-key repeats: each rule's
      // row contributes values that merge into the one element.
      if (!source.spec->fused && Same(slot.key, s.staged)) {
        ++stats_.duplicates_skipped;
        s.staged_valid = false;
        continue;
      }
      // Slot occupied by an earlier (no-later-sorting) instance: stall
      // this row until the merge drains the slot.
      if (slot.pending) return Status::OK();
      std::swap(slot.key, s.staged);
      s.staged_valid = false;
      slot.pending = true;
      slot.values_owned = false;
      slot.values.clear();
      for (int col : source.value_cols) {
        slot.values.push_back(col >= 0 ? s.row[static_cast<size_t>(col)]
                                       : WireField{});
      }
      heap_.emplace_back(stream_index, static_cast<uint32_t>(s.cursor));
      std::push_heap(heap_.begin(), heap_.end(), SlotAfter{this});
      stats_.peak_buffered_tuples =
          std::max(stats_.peak_buffered_tuples, ++s.live);
    }
  }
}

/// A window is replaced at most once per window per stream, and a stream
/// has at most one pending slot per InstanceSpec, so this copies little.
/// A slot already copied keeps its copy.
void Tagger::Range::OwnPendingValues(StreamState* s) {
  for (Captured& slot : s->slots) {
    if (!slot.pending || slot.values_owned) continue;
    size_t bytes = 0;
    for (const WireField& v : slot.values) {
      if (v.kind == WireField::Kind::kString) bytes += v.s.size();
    }
    slot.owned.clear();
    slot.owned.reserve(bytes);  // no reallocation below: the views hold
    for (WireField& v : slot.values) {
      if (v.kind != WireField::Kind::kString) continue;
      const size_t at = slot.owned.size();
      slot.owned += v.s;
      v.s = std::string_view(slot.owned).substr(at, v.s.size());
    }
    slot.values_owned = true;
  }
}

int Tagger::Range::Compare(const Key& a, const Key& b) const {
  if (on_bytes_) return a.bytes.compare(b.bytes);
  for (size_t p = 0; p < a.words.size(); ++p) {
    if (a.words[p] != b.words[p]) return a.words[p] < b.words[p] ? -1 : 1;
  }
  return 0;
}

/// Every key in the range is word-keyed until a cell no word carries
/// arrives; from then on the range runs on the codec bytes. A word maps to
/// exactly its codec segment, so the heap, the duplicate checks and the
/// open stack keep their order and identities across the switch. The
/// staged key of the stream that met the cell is not live: it is encoded
/// next.
void Tagger::Range::SwitchToBytes() {
  auto to_bytes = [](Key* key) {
    key->bytes.clear();
    key->bounds.assign(1, 0);
    for (uint64_t word : key->words) {
      engine::AppendKeyWord(word, &key->bytes);
      key->bounds.push_back(static_cast<uint32_t>(key->bytes.size()));
    }
    key->words.clear();
  };
  on_bytes_ = true;
  stats_.byte_key_ranges = 1;
  for (StreamState& s : streams_) {
    for (Captured& slot : s.slots) to_bytes(&slot.key);
    if (s.staged_valid) to_bytes(&s.staged);
  }
  for (size_t d = 0; d < depth_; ++d) to_bytes(&stack_[d].key);
}

/// Heap order: key, then stream index, then slot index — the first
/// stream, and within it the first InstanceSpec, wins a key tie.
bool Tagger::Range::SlotAfter::operator()(const Slot& a,
                                          const Slot& b) const {
  const int c = range->Compare(range->KeyOf(a), range->KeyOf(b));
  return c != 0 ? c > 0 : a > b;
}

Status Tagger::Range::EmitRowContent(const ViewTreeNode& node,
                                     const std::vector<WireField>* values,
                                     bool opening) {
  const NodeInfo& info = t_->nodes_[static_cast<size_t>(node.id)];
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

Status Tagger::Range::OpenElement_(int node_id, const Key& key,
                                   const std::vector<WireField>* values) {
  const ViewTreeNode& node = t_->tree_->node(node_id);
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

Status Tagger::Range::EmitInstance(int node_id, const Key& key,
                                   const std::vector<WireField>* values) {
  // Longest open-stack prefix matching the ancestor chain: node + identity.
  const std::vector<int>& chain =
      t_->nodes_[static_cast<size_t>(node_id)].chain;
  size_t keep = 0;
  for (; keep < depth_ && keep < chain.size(); ++keep) {
    const OpenElement& open = stack_[keep];
    if (open.node_id != chain[keep]) break;
    const auto& positions =
        t_->nodes_[static_cast<size_t>(chain[keep])].id_positions;
    if (!std::all_of(positions.begin(), positions.end(), [&](size_t p) {
          return SamePosition(open.key, key, p);
        })) {
      break;
    }
  }
  if (keep == chain.size()) {
    const ViewTreeNode& node = t_->tree_->node(node_id);
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

Status Tagger::Range::Run(const std::vector<std::vector<Source>>& sources,
                          const std::vector<engine::TupleStream*>& streams) {
  streams_.resize(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    StreamState& s = streams_[i];
    s.sources = &sources[i];
    s.stream = streams[i];
    s.slots.resize(sources[i].size());
    s.cursor = sources[i].size();  // no row yet
    SILK_RETURN_IF_ERROR(Refill(static_cast<uint32_t>(i)));
  }

  // Drain the smallest pending instance; refill only the stream it came
  // from, which is the only one whose slots changed.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), SlotAfter{this});
    const Slot next = heap_.back();
    heap_.pop_back();
    StreamState& s = streams_[next.first];
    Captured& slot = s.slots[next.second];
    slot.pending = false;
    --s.live;
    SILK_RETURN_IF_ERROR(EmitInstance((*s.sources)[next.second].spec->node_id,
                                      slot.key, &slot.values));
    SILK_RETURN_IF_ERROR(Refill(next.first));
  }

  for (; depth_ > 0; --depth_) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  return Status::OK();
}

Result<size_t> Tagger::Cut(
    const std::vector<StreamInput>& inputs,
    const std::vector<std::vector<Source>>& sources, size_t wanted,
    std::vector<std::vector<engine::TupleStream>>* slices) const {
  // The largest stream sets the split keys.
  size_t largest = 0;
  for (size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i].stream->num_tuples() >
        inputs[largest].stream->num_tuples()) {
      largest = i;
    }
  }

  // A row's root key is the encoding of key positions [0, root_positions_).
  // Every instance of a row shares it, so every source of a stream must
  // read it from the same columns (or constants), and an identity
  // variable must come from a column.
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].stream->num_tuples() == 0) continue;
    if (sources[i].empty()) return size_t{1};
    const Source& first = sources[i].front();
    for (size_t p = 0; p < root_positions_; ++p) {
      if (p > 0 && first.key_cols[p] < 0) return size_t{1};
      for (const Source& source : sources[i]) {
        if (source.key_cols[p] != first.key_cols[p] ||
            (first.key_cols[p] < 0 &&
             source.key_consts[p] != first.key_consts[p])) {
          return size_t{1};
        }
      }
    }
  }

  std::vector<WireField> row;
  std::string scratch;  // a probed row's bytes
  std::string key;      // root_key's result
  auto root_key = [&](size_t stream, size_t r) {
    key.clear();
    Status read = inputs[stream].stream->Probe(r, &row, &scratch);
    if (read.ok()) {
      sources[stream].front().EncodeKey(row, root_positions_, &key, nullptr);
    }
    return read;
  };

  // Split keys at row quantiles of the largest stream, strictly increasing
  // and past its first row, so no range starts empty there.
  const size_t largest_rows = inputs[largest].stream->num_tuples();
  std::vector<std::string> splits;
  SILK_RETURN_IF_ERROR(root_key(largest, 0));
  std::string previous = key;
  for (size_t r = 1; r < wanted; ++r) {
    SILK_RETURN_IF_ERROR(root_key(largest, r * largest_rows / wanted));
    if (key > previous) splits.push_back(previous = key);
  }
  if (splits.empty()) return size_t{1};

  // Each stream is cut at the first row whose root key reaches a split.
  const size_t ranges = splits.size() + 1;
  slices->assign(ranges, {});
  for (size_t i = 0; i < inputs.size(); ++i) {
    const size_t rows = inputs[i].stream->num_tuples();
    size_t begin = 0;
    for (size_t r = 0; r < ranges; ++r) {
      size_t end = rows;
      if (r + 1 < ranges) {
        // Binary search for the first row at or past splits[r].
        size_t lo = begin;
        while (lo < end) {
          const size_t mid = lo + (end - lo) / 2;
          SILK_RETURN_IF_ERROR(root_key(i, mid));
          if (key < splits[r]) {
            lo = mid + 1;
          } else {
            end = mid;
          }
        }
      }
      SILK_ASSIGN_OR_RETURN(engine::TupleStream slice,
                            inputs[i].stream->Slice(begin, end));
      (*slices)[r].push_back(std::move(slice));
      begin = end;
    }
  }
  return ranges;
}

Status Tagger::Run(std::vector<StreamInput> inputs) {
  BusyLane busy;  // this thread tags; helpers must find other cores idle
  std::string null_key;
  engine::EncodeValue(Value::Null(), &null_key);
  std::vector<std::vector<Source>> sources(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const engine::TupleStream& stream = *inputs[i].stream;
    // The stream's column of a label or variable, or -1 if it has none.
    auto column = [&](const std::string& name) {
      auto idx = stream.schema().Resolve("", name);
      return idx.ok() ? static_cast<int>(*idx) : -1;
    };
    for (const InstanceSpec& spec : inputs[i].spec->instances) {
      Source& source = sources[i].emplace_back();
      source.spec = &spec;
      // A level with no label column is constant: it matches.
      for (const auto& [level, expected] : spec.label_checks) {
        const int col = column(LabelColumnName(level));
        if (col >= 0) source.label_checks.emplace_back(col, expected);
      }
      for (int level : spec.null_levels) {
        const int col = column(LabelColumnName(level));
        if (col >= 0) source.null_cols.push_back(static_cast<size_t>(col));
      }
      // Key sources: the path labels up to the node's level and the key
      // vars the stream carries; every other position is NULL.
      source.key_cols.assign(num_positions_, -1);
      source.key_consts.assign(num_positions_, null_key);
      source.key_words.assign(num_positions_, 0);
      for (size_t j = 0; j < spec.path_labels.size(); ++j) {
        const size_t p = label_position_[j];
        source.key_consts[p].clear();
        engine::EncodeInt64(spec.path_labels[j], &source.key_consts[p]);
        source.const_words &= engine::NumericKeyWord(
            engine::Int64Segment(spec.path_labels[j]), &source.key_words[p]);
      }
      for (const auto& v : spec.key_vars) {
        auto pos = var_position_.find(v);
        if (pos != var_position_.end()) {
          source.key_cols[pos->second] = column(v.ColumnName());
        }
      }
      for (const auto& item : tree_->node(spec.node_id).content) {
        if (item.kind == ViewTreeNode::ContentItem::Kind::kValue) {
          source.value_cols.push_back(column(item.value.ColumnName()));
        }
      }
    }
  }

  // How many threads tag, the caller's included: one per kMinRowsPerRange
  // rows, as far as idle lanes allow (LaneLoan caps them at kMaxLanes).
  // Without a helper the document is one range.
  size_t total_rows = 0;
  for (const StreamInput& input : inputs) {
    total_rows += input.stream->num_tuples();
  }
  size_t wanted = options_.ranges > 0 ? options_.ranges
                                      : total_rows / kMinRowsPerRange;
  // What the inputs bound before this Run: one range reads them directly,
  // so only what it binds past these counts is the Run's.
  std::vector<StreamBind> before(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    before[i].windows = inputs[i].stream->windows();
    before[i].bind_ms = inputs[i].stream->bind_ms();
  }
  double cut_ms = 0;
  std::optional<LaneLoan> helpers;
  size_t threads = 1;
  size_t num_ranges = 1;
  std::vector<std::vector<engine::TupleStream>> slices;
  if (wanted > 1 && total_rows > 0) {
    helpers.emplace(wanted - 1);
    threads += helpers->count();
    if (options_.ranges == 0) {
      // Waves of `threads` ranges, each of at most kMaxRowsPerRange rows
      // on average.
      const size_t waves =
          (total_rows + threads * kMaxRowsPerRange - 1) /
          (threads * kMaxRowsPerRange);
      wanted = threads == 1 ? 1 : threads * waves;
    }
    if (wanted > 1) {
      const auto start = std::chrono::steady_clock::now();
      SILK_ASSIGN_OR_RETURN(num_ranges, Cut(inputs, sources, wanted, &slices));
      cut_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    }
    if (num_ranges == 1) helpers.reset();  // nothing to share: give back
  }
  threads = std::min(threads, num_ranges);

  if (!options_.document_element.empty()) {
    SILK_RETURN_IF_ERROR(writer_->StartElement(options_.document_element));
  }

  // Ranges run in waves of `threads`, each wave appended before the next
  // starts, so at most threads - 1 ranges hold buffered XML at once. A
  // wave's first range writes straight into the caller's writer, which
  // then holds everything before it; later ranges write into detached
  // writers that resume where a closed root element leaves the document.
  // Append reconciles the one case where that is not where the range
  // before left off (it emitted nothing).
  xml::XmlWriter::Continuation resume = writer_->Continue();
  resume.start_tag_open = false;
  resume.wrote_any = true;
  stats_ = TaggerStats{};
  stats_.ranges = num_ranges;
  stats_.threads = threads;
  stats_.cut_ms = cut_ms;
  bound_.assign(inputs.size(), StreamBind{});
  std::vector<std::unique_ptr<Range>> wave(threads);
  std::vector<std::vector<engine::TupleStream*>> streams(threads);
  std::vector<Status> status(threads);
  for (size_t first = 0; first < num_ranges; first += threads) {
    const size_t n = std::min(threads, num_ranges - first);
    for (size_t k = 0; k < n; ++k) {
      wave[k] = k == 0 ? std::make_unique<Range>(this, writer_)
                       : std::make_unique<Range>(this, resume);
      streams[k].clear();
      for (size_t i = 0; i < inputs.size(); ++i) {
        streams[k].push_back(num_ranges == 1 ? inputs[i].stream
                                             : &slices[first + k][i]);
      }
    }
    RunConcurrently(n, [&](size_t k) {
      status[k] = wave[k]->Run(sources, streams[k]);
    });
    size_t buffered = 0;
    for (size_t k = 0; k < n; ++k) {
      SILK_RETURN_IF_ERROR(status[k]);
      if (k > 0) {
        buffered += wave[k]->writer()->bytes_written();
        SILK_RETURN_IF_ERROR(writer_->Append(wave[k]->writer()));
      }
      const TaggerStats& s = wave[k]->stats();
      stats_.instances_emitted += s.instances_emitted;
      stats_.rows_consumed += s.rows_consumed;
      stats_.duplicates_skipped += s.duplicates_skipped;
      stats_.forced_ancestor_opens += s.forced_ancestor_opens;
      stats_.byte_key_ranges += s.byte_key_ranges;
      stats_.max_open_depth =
          std::max(stats_.max_open_depth, s.max_open_depth);
      stats_.peak_buffered_tuples =
          std::max(stats_.peak_buffered_tuples, s.peak_buffered_tuples);
      for (size_t i = 0; i < inputs.size(); ++i) {
        const engine::TupleStream& read = *streams[k][i];
        const StreamBind base = num_ranges == 1 ? before[i] : StreamBind{};
        bound_[i].wire_bytes += read.wire_bytes();
        bound_[i].windows += read.windows() - base.windows;
        bound_[i].bind_ms += read.bind_ms() - base.bind_ms;
      }
      wave[k].reset();  // frees its appended XML before the next wave
      // ... and its slices' windows.
      if (num_ranges > 1) {
        std::vector<engine::TupleStream>().swap(slices[first + k]);
      }
    }
    stats_.peak_buffered_xml_bytes =
        std::max(stats_.peak_buffered_xml_bytes, buffered);
  }

  if (!options_.document_element.empty()) {
    SILK_RETURN_IF_ERROR(writer_->EndElement());
  }
  for (const StreamBind& b : bound_) {
    stats_.windows += b.windows;
    stats_.bind_ms += b.bind_ms;
  }
  return Status::OK();
}

}  // namespace silkroute::core
