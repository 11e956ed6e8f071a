// XmlWriter: streaming XML serializer. Memory use is bounded by the element
// nesting depth (the open-element stack), never by document size — the
// property SilkRoute's tagger relies on for views larger than main memory.
#ifndef SILKROUTE_XML_WRITER_H_
#define SILKROUTE_XML_WRITER_H_

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace silkroute::xml {

class XmlWriter {
 public:
  struct Options {
    bool pretty = false;     // newlines + two-space indentation
    bool declaration = true; // emit <?xml version="1.0"?>
    // Tokens accumulate in a flat in-memory buffer that is written to the
    // ostream in chunks of at least this many bytes, replacing one virtual
    // ostream write per token with one per ~64 KiB. 0 writes through
    // unbuffered. Buffering never changes the emitted bytes.
    size_t buffer_bytes = 64 * 1024;
  };

  explicit XmlWriter(std::ostream* out) : XmlWriter(out, Options()) {}
  XmlWriter(std::ostream* out, Options options);

  /// Where a detached writer resumes a document.
  struct Continuation {
    bool pretty = false;
    size_t depth = 0;             // elements open around the resumed output
    bool start_tag_open = false;  // the innermost start tag lacks its '>'
    bool wrote_any = false;       // pretty mode breaks lines after output
  };

  /// This writer's position, for a detached writer to resume from.
  Continuation Continue() const;

  /// A detached writer: resumes a document at `from` and keeps what it
  /// writes in memory, never flushing, until a writer of that document
  /// Appends it. It cannot close the `from.depth` elements around it.
  explicit XmlWriter(const Continuation& from);

  /// Flushes any buffered output (Finish also does; this covers writers
  /// abandoned mid-document, e.g. on error paths, so the ostream still
  /// observes everything that was logically written).
  ~XmlWriter() { FlushBuffer(); }

  XmlWriter(const XmlWriter&) = delete;
  XmlWriter& operator=(const XmlWriter&) = delete;

  /// Opens `<name>`. Names are not validated beyond being non-empty.
  Status StartElement(std::string_view name);

  /// Writes an attribute on the most recently started element. Only legal
  /// before any content has been written into it.
  Status Attribute(std::string_view name, std::string_view value);

  /// Writes escaped character data inside the current element.
  Status Text(std::string_view text);

  /// Closes the current element.
  Status EndElement();

  /// Closes all open elements.
  Status Finish();

  /// Writes a detached writer's output here, as if its tokens had been
  /// written by this writer, and takes over its end state. `detached` must
  /// have closed what it opened and resumed at this writer's depth and
  /// pretty mode, after markup (not text). It may assume a closed start tag
  /// and earlier output where this writer has neither: Append then closes
  /// the open start tag, or drops the leading line break, itself.
  Status Append(XmlWriter* detached);

  size_t depth() const { return stack_.size(); }
  size_t bytes_written() const { return bytes_written_; }
  /// Number of buffered chunks pushed to the ostream so far.
  size_t flushes() const { return flushes_; }

 private:
  void Write(std::string_view s);
  void FlushBuffer();
  void MaybeFlush();
  void CloseStartTagIfOpen();
  void Indent();

  std::ostream* out_;
  Options options_;
  std::vector<std::string> stack_;
  Continuation resumed_from_;  // detached: the state it resumed at
  bool start_tag_open_ = false;  // "<name" emitted but not yet ">"
  bool just_wrote_text_ = false;
  size_t bytes_written_ = 0;
  std::string buffer_;
  std::string scratch_;  // escape staging for the unbuffered path
  size_t flushes_ = 0;
};

}  // namespace silkroute::xml

#endif  // SILKROUTE_XML_WRITER_H_
