// A small DOM reader used by tests and the DTD validator: parses elements,
// attributes, text, the XML declaration, and comments. No namespaces,
// CDATA, or processing instructions — the subset this project emits.
#ifndef SILKROUTE_XML_READER_H_
#define SILKROUTE_XML_READER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace silkroute::xml {

struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<std::unique_ptr<XmlNode>> children;
  std::string text;  // concatenated character data directly inside this node

  /// First child with the given element name, or nullptr.
  const XmlNode* FirstChild(std::string_view child_name) const;

  /// All children with the given element name.
  std::vector<const XmlNode*> Children(std::string_view child_name) const;

  /// Number of element children.
  size_t NumChildren() const { return children.size(); }
};

/// The nesting budget of ParseXml and ParseDtd (xml/dtd.h): each element,
/// and each parenthesized content-particle group, holds one level while it
/// parses. Deeper input is kInvalidArgument, so hostile text cannot exhaust
/// the stack.
inline constexpr size_t kMaxNestingDepth = 256;

/// Parses a document; returns its root element.
Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view input);

}  // namespace silkroute::xml

#endif  // SILKROUTE_XML_READER_H_
