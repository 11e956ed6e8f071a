// The tagger (paper Sec. 3.3): merges the sorted tuple streams of a
// partitioned plan into one logical stream, re-nests the tuples, and emits
// the XML document. Memory use depends only on the number of streams and
// the view-tree depth — one in-flight tuple per stream plus the open-element
// stack — never on the database size.
//
// Each physical row may carry several node instances (a parent repeated
// next to each child in outer-join plans, a whole reduced class in reduced
// plans). The tagger expands rows into *logical instance rows* using the
// stream's InstanceSpecs, in document order, and merges logical rows across
// streams by the global interleaved key (L1, identity vars of level 1,
// L2, ...). Duplicate instances (same full key) are emitted once.
//
// Keys are codec-encoded once and ordered by byte compare in a k-way heap
// (DESIGN.md §10); rows are read in place from the wire and per-row state
// reuses its storage, so merge/tag allocates nothing per row once warm.
#ifndef SILKROUTE_SILKROUTE_TAGGER_H_
#define SILKROUTE_SILKROUTE_TAGGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/tuple_stream.h"
#include "silkroute/sqlgen.h"
#include "silkroute/view_tree.h"
#include "xml/writer.h"

namespace silkroute::core {

struct TaggerStats {
  size_t instances_emitted = 0;
  size_t rows_consumed = 0;
  size_t duplicates_skipped = 0;
  size_t max_open_depth = 0;
  /// Ancestor elements that had to be opened without their own instance row
  /// (should be zero; indicates a stream invariant violation).
  size_t forced_ancestor_opens = 0;
  /// Peak simultaneously captured instances within one stream (bounded by
  /// the number of view-tree nodes, never by database size).
  size_t peak_buffered_tuples = 0;
};

class Tagger {
 public:
  struct StreamInput {
    const StreamSpec* spec = nullptr;
    engine::TupleStream* stream = nullptr;
  };

  struct Options {
    /// If non-empty, wrap the document in this element (RXL views whose
    /// root node repeats produce a forest otherwise).
    std::string document_element;
  };

  Tagger(const ViewTree* tree, xml::XmlWriter* writer, Options options);
  ~Tagger();

  /// Consumes all streams and writes the document. A corrupt or short
  /// stream is an error, never a silently truncated document.
  Status Run(std::vector<StreamInput> streams);

  const TaggerStats& stats() const { return stats_; }

 private:
  struct StreamState;  // runtime cursor per stream

  /// An encoded global key: the concatenated codec segments of all key
  /// positions, whose byte order is their lexicographic Value order.
  struct Key {
    std::string bytes;
    std::vector<uint32_t> bounds;  // position p is [bounds[p], bounds[p+1])
    std::string_view Position(size_t p) const {
      return std::string_view(bytes).substr(bounds[p],
                                            bounds[p + 1] - bounds[p]);
    }
  };

  /// Per view-tree node, resolved once in the constructor.
  struct NodeInfo {
    std::vector<int> chain;            // ancestor ids, root..node
    std::vector<size_t> id_positions;  // key positions of its identity vars
    std::vector<bool> value_identity;  // per kValue item: identity-backed?
  };

  /// One open-element stack entry.
  struct OpenElement {
    int node_id = -1;
    Key key;
  };

  /// A heap entry: (stream index, InstanceSpec slot) of a pending instance.
  using Slot = std::pair<uint32_t, uint32_t>;
  struct SlotAfter {  // heap order
    const Tagger* tagger;
    bool operator()(const Slot& a, const Slot& b) const;
  };

  Status Refill(uint32_t stream_index);
  Status EmitInstance(int node_id, const Key& key,
                      const std::vector<engine::WireField>* values);
  Status EmitRowContent(const ViewTreeNode& node,
                        const std::vector<engine::WireField>* values,
                        bool opening);
  Status OpenElement_(int node_id, const Key& key,
                      const std::vector<engine::WireField>* values);

  const ViewTree* tree_;
  xml::XmlWriter* writer_;
  Options options_;
  TaggerStats stats_;

  size_t num_positions_ = 0;  // global key layout
  std::vector<size_t> label_position_;       // level - 1 -> position
  std::map<VarIndex, size_t> var_position_;  // identity var -> position

  std::vector<NodeInfo> nodes_;
  std::vector<StreamState> streams_;
  std::vector<Slot> heap_;  // pending instances, min-heap by SlotAfter
  // Entries past depth_ keep their buffers for reuse.
  std::vector<OpenElement> stack_;
  size_t depth_ = 0;
};

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_TAGGER_H_
