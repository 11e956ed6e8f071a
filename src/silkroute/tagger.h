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
// Keys are read once per instance, one 64-bit word per key position, and
// ordered by word compare in a k-way heap; a range that meets a key cell no
// word carries (a string, a magnitude at or above 2^53) moves onto the
// codec bytes (DESIGN.md §10). Rows are read in place from the wire and
// per-row state reuses its storage, so merge/tag allocates nothing per row
// once warm.
//
// Range-parallel tagging (DESIGN.md §10): the global key starts with the
// root level's label and identity variables, so the document is the
// in-order concatenation of independent root-instance ranges. Run cuts
// every stream at the same root-key boundaries into zero-copy slices and
// runs the same merge loop once per range, on as many threads as there
// are idle core lanes (common/lanes.h, at most kMaxLanes), in waves of
// one range per thread: a wave's first range writes straight into the
// caller's writer, its others into detached writers appended in order
// before the next wave starts. So memory is constant per range plus the
// buffered XML of at most kMaxLanes - 1 ranges of about kMaxRowsPerRange
// rows each. A document with fewer than 2 * kMinRowsPerRange rows, or a
// Run that finds no idle lane, is one range on the calling thread.
#ifndef SILKROUTE_SILKROUTE_TAGGER_H_
#define SILKROUTE_SILKROUTE_TAGGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/tuple_stream.h"
#include "silkroute/sqlgen.h"
#include "silkroute/view_tree.h"
#include "xml/writer.h"

namespace silkroute::core {

/// Counters of one Run, summed over its ranges; max_open_depth and
/// peak_buffered_tuples are the largest any range reached.
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
  /// Root-instance ranges the streams were cut into (1 = not cut).
  size_t ranges = 0;
  /// Threads that tagged them, the calling thread included.
  size_t threads = 0;
  /// Most XML bytes that ranges held in detached writers at once.
  size_t peak_buffered_xml_bytes = 0;
  /// Ranges that met a key cell no word carries and finished on codec
  /// bytes (0 for Query 1: its keys are integers).
  size_t byte_key_ranges = 0;
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
    /// Test seam: the number of ranges to cut into, instead of the row
    /// count's, even when no lane is idle; 0 = automatic. Fewer result
    /// when the streams have fewer distinct root instances or cannot be
    /// cut. Threads still come from the idle lanes.
    size_t ranges = 0;
  };

  /// Rows per range below which Run cuts no further: a serve fragment stays
  /// one range, a whole Query 1 view at TPC-H scale 0.025 gets four.
  static constexpr size_t kMinRowsPerRange = 3072;
  /// Rows per range above which Run cuts more ranges than threads and
  /// tags them in waves, bounding the buffered XML. At TPC-H scale 0.025
  /// the whole Query 1 view (at most 62,476 rows) is still one wave.
  static constexpr size_t kMaxRowsPerRange = 16384;

  Tagger(const ViewTree* tree, xml::XmlWriter* writer, Options options);
  ~Tagger();

  /// Consumes all streams and writes the document. A corrupt or short
  /// stream, in any range, is an error, never a silently truncated
  /// document.
  Status Run(std::vector<StreamInput> streams);

  const TaggerStats& stats() const { return stats_; }

 private:
  struct Source;  // an InstanceSpec resolved against its stream's columns
  class Range;    // one range's merge state

  /// A global key. While its range is on words, one word per key position
  /// (NULL 0, a numeric its codec image), whose lexicographic unsigned
  /// order is the lexicographic Value order; once the range is on bytes,
  /// the concatenated codec segments of all key positions, in byte order.
  struct Key {
    std::vector<uint64_t> words;
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

  /// Cuts every stream into the same (at most `wanted`) root-key ranges,
  /// framing the streams on `threads` threads; `*slices` gets one slice
  /// per stream per range. Returns the number of ranges; at 1 `*slices`
  /// stays empty.
  Result<size_t> Cut(const std::vector<StreamInput>& inputs,
                     const std::vector<std::vector<Source>>& sources,
                     size_t wanted, size_t threads,
                     std::vector<std::vector<engine::TupleStream>>* slices)
      const;

  const ViewTree* tree_;
  xml::XmlWriter* writer_;
  Options options_;
  TaggerStats stats_;

  size_t num_positions_ = 0;  // global key layout
  size_t root_positions_ = 0;  // L1 and the level-1 identity vars lead it
  std::vector<size_t> label_position_;       // level - 1 -> position
  std::map<VarIndex, size_t> var_position_;  // identity var -> position
  std::vector<NodeInfo> nodes_;
};

}  // namespace silkroute::core

#endif  // SILKROUTE_SILKROUTE_TAGGER_H_
