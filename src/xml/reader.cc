#include "xml/reader.h"

#include <cctype>

#include "common/nesting.h"
#include "common/string_util.h"
#include "xml/escape.h"

namespace silkroute::xml {

const XmlNode* XmlNode::FirstChild(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c->name == child_name) return c.get();
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::Children(
    std::string_view child_name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children) {
    if (c->name == child_name) out.push_back(c.get());
  }
  return out;
}

namespace {

class Reader {
 public:
  explicit Reader(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<XmlNode>> Parse() {
    SkipProlog();
    SILK_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseElement());
    SkipWhitespaceAndComments();
    if (pos_ < input_.size()) {
      return Err("trailing content after root element");
    }
    return root;
  }

 private:
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < input_.size()) {
      if (std::isspace(static_cast<unsigned char>(input_[pos_]))) {
        ++pos_;
        continue;
      }
      if (input_.substr(pos_).substr(0, 4) == "<!--") {
        size_t end = input_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
        continue;
      }
      break;
    }
  }

  void SkipProlog() {
    SkipWhitespaceAndComments();
    // <?xml ... ?>
    if (input_.substr(pos_).substr(0, 2) == "<?") {
      size_t end = input_.find("?>", pos_);
      pos_ = end == std::string_view::npos ? input_.size() : end + 2;
    }
    SkipWhitespaceAndComments();
    // <!DOCTYPE ...> (no internal subset support needed here)
    if (input_.substr(pos_).substr(0, 9) == "<!DOCTYPE") {
      size_t end = input_.find('>', pos_);
      pos_ = end == std::string_view::npos ? input_.size() : end + 1;
    }
    SkipWhitespaceAndComments();
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_' || input_[pos_] == '-' ||
            input_[pos_] == ':' || input_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected name");
    return std::string(input_.substr(start, pos_ - start));
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Result<std::unique_ptr<XmlNode>> ParseElement() {
    if (pos_ >= input_.size() || input_[pos_] != '<') {
      return Err("expected '<'");
    }
    NestingLevel level(&depth_);
    SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, pos_));
    ++pos_;
    auto node = std::make_unique<XmlNode>();
    SILK_ASSIGN_OR_RETURN(node->name, ParseName());

    // Attributes.
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) return Err("unterminated start tag");
      if (input_[pos_] == '/' || input_[pos_] == '>') break;
      SILK_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipSpace();
      if (pos_ >= input_.size() || input_[pos_] != '=') {
        return Err("expected '=' in attribute");
      }
      ++pos_;
      SkipSpace();
      if (pos_ >= input_.size() ||
          (input_[pos_] != '"' && input_[pos_] != '\'')) {
        return Err("expected quoted attribute value");
      }
      char quote = input_[pos_++];
      size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != quote) ++pos_;
      if (pos_ >= input_.size()) return Err("unterminated attribute value");
      node->attributes[attr_name] =
          Unescape(input_.substr(start, pos_ - start));
      ++pos_;
    }

    if (input_[pos_] == '/') {
      ++pos_;
      if (pos_ >= input_.size() || input_[pos_] != '>') {
        return Err("expected '>' after '/'");
      }
      ++pos_;
      return node;
    }
    ++pos_;  // '>'

    // Content.
    while (true) {
      if (pos_ >= input_.size()) {
        return Err("unterminated element <" + node->name + ">");
      }
      if (input_[pos_] == '<') {
        if (input_.substr(pos_).substr(0, 4) == "<!--") {
          size_t end = input_.find("-->", pos_ + 4);
          pos_ = end == std::string_view::npos ? input_.size() : end + 3;
          continue;
        }
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '/') {
          pos_ += 2;
          SILK_ASSIGN_OR_RETURN(std::string close_name, ParseName());
          if (close_name != node->name) {
            return Err("mismatched close tag </" + close_name +
                       "> for <" + node->name + ">");
          }
          SkipSpace();
          if (pos_ >= input_.size() || input_[pos_] != '>') {
            return Err("expected '>' in close tag");
          }
          ++pos_;
          return node;
        }
        SILK_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child, ParseElement());
        node->children.push_back(std::move(child));
        continue;
      }
      size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != '<') ++pos_;
      std::string_view raw = input_.substr(start, pos_ - start);
      node->text += Unescape(raw);
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // elements open while parsing
};

}  // namespace

Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view input) {
  Reader reader(input);
  return reader.Parse();
}

}  // namespace silkroute::xml
