#include "xml/writer.h"

#include <cstdint>

#include "xml/escape.h"

namespace silkroute::xml {

XmlWriter::XmlWriter(std::ostream* out, Options options)
    : out_(out), options_(options) {
  if (options_.buffer_bytes > 0) {
    // One slack token past the threshold before the size check trips.
    buffer_.reserve(options_.buffer_bytes + 256);
  }
  if (options_.declaration) {
    Write("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    if (options_.pretty) Write("\n");
  }
}

XmlWriter::XmlWriter(const Continuation& from)
    : out_(nullptr),
      stack_(from.depth),
      resumed_from_(from),
      start_tag_open_(from.start_tag_open) {
  options_.pretty = from.pretty;
  options_.declaration = false;
  options_.buffer_bytes = SIZE_MAX;  // never flushes: Append takes buffer_
}

XmlWriter::Continuation XmlWriter::Continue() const {
  return Continuation{options_.pretty, stack_.size(), start_tag_open_,
                      bytes_written_ > 0 || resumed_from_.wrote_any};
}

void XmlWriter::Write(std::string_view s) {
  bytes_written_ += s.size();
  if (options_.buffer_bytes == 0) {
    out_->write(s.data(), static_cast<std::streamsize>(s.size()));
    return;
  }
  buffer_.append(s);
  MaybeFlush();
}

void XmlWriter::FlushBuffer() {
  if (buffer_.empty() || out_ == nullptr) return;
  out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
  ++flushes_;
}

void XmlWriter::MaybeFlush() {
  if (buffer_.size() >= options_.buffer_bytes) FlushBuffer();
}

void XmlWriter::CloseStartTagIfOpen() {
  if (start_tag_open_) {
    Write(">");
    start_tag_open_ = false;
  }
}

void XmlWriter::Indent() {
  if (!options_.pretty) return;
  if (bytes_written_ > 0 || resumed_from_.wrote_any) Write("\n");
  for (size_t i = 0; i < stack_.size(); ++i) Write("  ");
}

Status XmlWriter::StartElement(std::string_view name) {
  if (name.empty()) {
    return Status::InvalidArgument("empty element name");
  }
  CloseStartTagIfOpen();
  if (!just_wrote_text_) Indent();
  Write("<");
  Write(name);
  start_tag_open_ = true;
  just_wrote_text_ = false;
  stack_.emplace_back(name);
  return Status::OK();
}

Status XmlWriter::Attribute(std::string_view name, std::string_view value) {
  if (!start_tag_open_) {
    return Status::InvalidArgument(
        "Attribute() is only legal immediately after StartElement()");
  }
  Write(" ");
  Write(name);
  Write("=\"");
  if (options_.buffer_bytes > 0) {
    size_t before = buffer_.size();
    AppendEscapedAttribute(value, &buffer_);
    bytes_written_ += buffer_.size() - before;
    MaybeFlush();
  } else {
    scratch_.clear();
    AppendEscapedAttribute(value, &scratch_);
    Write(scratch_);
  }
  Write("\"");
  return Status::OK();
}

Status XmlWriter::Text(std::string_view text) {
  if (stack_.empty()) {
    return Status::InvalidArgument("text outside of any element");
  }
  CloseStartTagIfOpen();
  if (options_.buffer_bytes > 0) {
    // Escape straight into the output buffer: no temporary per token.
    size_t before = buffer_.size();
    AppendEscapedText(text, &buffer_);
    bytes_written_ += buffer_.size() - before;
    MaybeFlush();
  } else {
    scratch_.clear();
    AppendEscapedText(text, &scratch_);
    Write(scratch_);
  }
  just_wrote_text_ = true;
  return Status::OK();
}

Status XmlWriter::EndElement() {
  if (stack_.empty()) {
    return Status::InvalidArgument("EndElement() with no open element");
  }
  if (stack_.size() == resumed_from_.depth) {
    return Status::InvalidArgument(
        "EndElement() would close an element a detached writer resumed in");
  }
  std::string name = std::move(stack_.back());
  stack_.pop_back();
  if (start_tag_open_) {
    Write("/>");
    start_tag_open_ = false;
  } else {
    if (!just_wrote_text_) Indent();
    Write("</");
    Write(name);
    Write(">");
  }
  just_wrote_text_ = false;
  return Status::OK();
}

Status XmlWriter::Finish() {
  while (stack_.size() > resumed_from_.depth) {
    SILK_RETURN_IF_ERROR(EndElement());
  }
  if (options_.pretty) Write("\n");
  FlushBuffer();
  if (out_ != nullptr) out_->flush();
  return Status::OK();
}

Status XmlWriter::Append(XmlWriter* detached) {
  const Continuation& from = detached->resumed_from_;
  if (from.depth != stack_.size() || from.pretty != options_.pretty ||
      detached->stack_.size() != from.depth ||
      (from.start_tag_open && !start_tag_open_)) {
    return Status::InvalidArgument(
        "Append() of a writer that did not resume at this position");
  }
  std::string_view bytes = detached->buffer_;
  if (bytes.empty()) return Status::OK();
  if (options_.pretty && from.wrote_any && !Continue().wrote_any &&
      bytes.front() == '\n') {
    bytes.remove_prefix(1);  // a document's first token has no line break
  }
  if (!from.start_tag_open) CloseStartTagIfOpen();
  if (options_.buffer_bytes == 0 || bytes.size() < options_.buffer_bytes) {
    Write(bytes);
  } else {
    // Large output goes straight through rather than growing buffer_.
    FlushBuffer();
    out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes_written_ += bytes.size();
    ++flushes_;
  }
  start_tag_open_ = detached->start_tag_open_;
  just_wrote_text_ = detached->just_wrote_text_;
  return Status::OK();
}

}  // namespace silkroute::xml
