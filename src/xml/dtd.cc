#include "xml/dtd.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/nesting.h"
#include "common/string_util.h"

namespace silkroute::xml {

namespace {

const char* OccurrenceSuffix(ContentParticle::Occurrence occ) {
  switch (occ) {
    case ContentParticle::Occurrence::kOne:
      return "";
    case ContentParticle::Occurrence::kOptional:
      return "?";
    case ContentParticle::Occurrence::kStar:
      return "*";
    case ContentParticle::Occurrence::kPlus:
      return "+";
  }
  return "";
}

}  // namespace

std::string ContentParticle::ToString() const {
  switch (kind) {
    case Kind::kName:
      return name + OccurrenceSuffix(occurrence);
    case Kind::kSequence:
    case Kind::kChoice: {
      std::vector<std::string> parts;
      parts.reserve(children.size());
      for (const auto& c : children) parts.push_back(c.ToString());
      const char* sep = kind == Kind::kSequence ? ", " : " | ";
      return "(" + Join(parts, sep) + ")" + OccurrenceSuffix(occurrence);
    }
  }
  return "";
}

std::string ElementDecl::ToString() const {
  std::string body;
  switch (category) {
    case Category::kEmpty:
      body = "EMPTY";
      break;
    case Category::kAny:
      body = "ANY";
      break;
    case Category::kPcdata:
      body = "(#PCDATA)";
      break;
    case Category::kMixed: {
      body = "(#PCDATA";
      for (const auto& n : mixed_names) body += " | " + n;
      body += ")*";
      break;
    }
    case Category::kChildren:
      body = content.ToString();
      // A bare name particle needs enclosing parentheses to be valid DTD
      // syntax: (nation?) rather than nation?.
      if (content.kind == ContentParticle::Kind::kName) {
        body = "(" + body + ")";
      }
      break;
  }
  return "<!ELEMENT " + name + " " + body + ">";
}

Status Dtd::AddElement(ElementDecl decl) {
  const std::string name = decl.name;
  if (elements_.count(name) > 0) {
    return Status::AlreadyExists("duplicate element declaration '" + name +
                                 "'");
  }
  elements_.emplace(name, std::move(decl));
  return Status::OK();
}

bool Dtd::HasElement(const std::string& name) const {
  return elements_.count(name) > 0;
}

Result<const ElementDecl*> Dtd::GetElement(const std::string& name) const {
  auto it = elements_.find(name);
  if (it == elements_.end()) {
    return Status::NotFound("no declaration for element '" + name + "'");
  }
  return &it->second;
}

namespace {

/// Position-set matcher: from each position in `from`, which positions can
/// the particle reach by consuming children names?
std::set<size_t> MatchOnce(const ContentParticle& p,
                           const std::vector<std::string>& names,
                           const std::set<size_t>& from);

std::set<size_t> MatchWithOccurrence(const ContentParticle& p,
                                     const std::vector<std::string>& names,
                                     const std::set<size_t>& from) {
  using Occ = ContentParticle::Occurrence;
  std::set<size_t> result;
  switch (p.occurrence) {
    case Occ::kOne:
      return MatchOnce(p, names, from);
    case Occ::kOptional: {
      result = from;
      std::set<size_t> once = MatchOnce(p, names, from);
      result.insert(once.begin(), once.end());
      return result;
    }
    case Occ::kStar:
    case Occ::kPlus: {
      std::set<size_t> frontier =
          p.occurrence == Occ::kStar ? from : std::set<size_t>{};
      std::set<size_t> current = from;
      // Iterate to fixpoint; each iteration consumes at least one name, so
      // this terminates in at most names.size() rounds.
      while (true) {
        std::set<size_t> next = MatchOnce(p, names, current);
        size_t before = frontier.size();
        frontier.insert(next.begin(), next.end());
        if (frontier.size() == before) break;
        current = std::move(next);
        if (current.empty()) break;
      }
      return frontier;
    }
  }
  return result;
}

std::set<size_t> MatchOnce(const ContentParticle& p,
                           const std::vector<std::string>& names,
                           const std::set<size_t>& from) {
  std::set<size_t> out;
  switch (p.kind) {
    case ContentParticle::Kind::kName: {
      for (size_t pos : from) {
        if (pos < names.size() && names[pos] == p.name) out.insert(pos + 1);
      }
      return out;
    }
    case ContentParticle::Kind::kSequence: {
      std::set<size_t> current = from;
      for (const auto& child : p.children) {
        current = MatchWithOccurrence(child, names, current);
        if (current.empty()) return current;
      }
      return current;
    }
    case ContentParticle::Kind::kChoice: {
      for (const auto& child : p.children) {
        std::set<size_t> branch = MatchWithOccurrence(child, names, from);
        out.insert(branch.begin(), branch.end());
      }
      return out;
    }
  }
  return out;
}

bool IsWhitespaceOnly(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c));
  });
}

}  // namespace

Status Dtd::Validate(const XmlNode& root) const {
  SILK_ASSIGN_OR_RETURN(const ElementDecl* decl, GetElement(root.name));

  switch (decl->category) {
    case ElementDecl::Category::kEmpty:
      if (!root.children.empty() || !IsWhitespaceOnly(root.text)) {
        return Status::ConstraintViolation("element '" + root.name +
                                           "' declared EMPTY has content");
      }
      break;
    case ElementDecl::Category::kAny:
      break;
    case ElementDecl::Category::kPcdata:
      if (!root.children.empty()) {
        return Status::ConstraintViolation(
            "element '" + root.name +
            "' declared (#PCDATA) has element children");
      }
      break;
    case ElementDecl::Category::kMixed: {
      for (const auto& child : root.children) {
        if (std::find(decl->mixed_names.begin(), decl->mixed_names.end(),
                      child->name) == decl->mixed_names.end()) {
          return Status::ConstraintViolation(
              "element '" + child->name + "' not allowed in mixed content of '" +
              root.name + "'");
        }
      }
      break;
    }
    case ElementDecl::Category::kChildren: {
      if (!IsWhitespaceOnly(root.text)) {
        return Status::ConstraintViolation(
            "character data not allowed in element content of '" + root.name +
            "'");
      }
      std::vector<std::string> child_names;
      child_names.reserve(root.children.size());
      for (const auto& c : root.children) child_names.push_back(c->name);
      std::set<size_t> end =
          MatchWithOccurrence(decl->content, child_names, {0});
      if (end.count(child_names.size()) == 0) {
        return Status::ConstraintViolation(
            "children of '" + root.name + "' do not match content model " +
            decl->content.ToString());
      }
      break;
    }
  }

  for (const auto& child : root.children) {
    SILK_RETURN_IF_ERROR(Validate(*child));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DTD parsing
// ---------------------------------------------------------------------------

namespace {

class DtdParser {
 public:
  explicit DtdParser(std::string_view text) : text_(text) {}

  Result<Dtd> Parse() {
    Dtd dtd;
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= text_.size()) break;
      if (Lookahead("<!ELEMENT")) {
        SILK_ASSIGN_OR_RETURN(ElementDecl decl, ParseElementDecl());
        SILK_RETURN_IF_ERROR(dtd.AddElement(std::move(decl)));
      } else if (Lookahead("<!ATTLIST")) {
        // Parsed for tolerance, ignored.
        size_t end = text_.find('>', pos_);
        if (end == std::string_view::npos) {
          return Err("unterminated <!ATTLIST");
        }
        pos_ = end + 1;
      } else {
        return Err("expected <!ELEMENT or <!ATTLIST");
      }
    }
    return dtd;
  }

 private:
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  bool Lookahead(std::string_view prefix) const {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        continue;
      }
      if (text_.substr(pos_, 4) == "<!--") {
        size_t end = text_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? text_.size() : end + 3;
        continue;
      }
      break;
    }
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.' ||
            text_[pos_] == ':')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected name");
    return std::string(text_.substr(start, pos_ - start));
  }

  ContentParticle::Occurrence ParseOccurrence() {
    if (pos_ < text_.size()) {
      switch (text_[pos_]) {
        case '?':
          ++pos_;
          return ContentParticle::Occurrence::kOptional;
        case '*':
          ++pos_;
          return ContentParticle::Occurrence::kStar;
        case '+':
          ++pos_;
          return ContentParticle::Occurrence::kPlus;
        default:
          break;
      }
    }
    return ContentParticle::Occurrence::kOne;
  }

  Result<ElementDecl> ParseElementDecl() {
    pos_ += 9;  // "<!ELEMENT"
    SkipSpace();
    ElementDecl decl;
    SILK_ASSIGN_OR_RETURN(decl.name, ParseName());
    SkipSpace();

    if (Lookahead("EMPTY")) {
      pos_ += 5;
      decl.category = ElementDecl::Category::kEmpty;
    } else if (Lookahead("ANY")) {
      pos_ += 3;
      decl.category = ElementDecl::Category::kAny;
    } else if (Lookahead("(")) {
      size_t paren_pos = pos_;
      ++pos_;
      SkipSpace();
      if (Lookahead("#PCDATA")) {
        pos_ += 7;
        SkipSpace();
        std::vector<std::string> mixed;
        while (Lookahead("|")) {
          ++pos_;
          SkipSpace();
          SILK_ASSIGN_OR_RETURN(std::string n, ParseName());
          mixed.push_back(std::move(n));
          SkipSpace();
        }
        if (!Lookahead(")")) return Err("expected ')'");
        ++pos_;
        if (mixed.empty()) {
          decl.category = ElementDecl::Category::kPcdata;
          // Optional trailing '*' per the XML spec.
          if (Lookahead("*")) ++pos_;
        } else {
          decl.category = ElementDecl::Category::kMixed;
          decl.mixed_names = std::move(mixed);
          if (!Lookahead("*")) {
            return Err("mixed content must end with ')*'");
          }
          ++pos_;
        }
      } else {
        pos_ = paren_pos;  // let ParseParticle consume the '('
        decl.category = ElementDecl::Category::kChildren;
        SILK_ASSIGN_OR_RETURN(decl.content, ParseParticle());
      }
    } else {
      return Err("expected content model");
    }
    SkipSpace();
    if (!Lookahead(">")) return Err("expected '>'");
    ++pos_;
    return decl;
  }

  Result<ContentParticle> ParseParticle() {
    SkipSpace();
    ContentParticle p;
    if (Lookahead("(")) {
      NestingLevel level(&depth_);
      SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, pos_));
      ++pos_;
      std::vector<ContentParticle> parts;
      SILK_ASSIGN_OR_RETURN(ContentParticle first, ParseParticle());
      parts.push_back(std::move(first));
      SkipSpace();
      char sep = 0;
      while (pos_ < text_.size() &&
             (text_[pos_] == ',' || text_[pos_] == '|')) {
        if (sep == 0) {
          sep = text_[pos_];
        } else if (text_[pos_] != sep) {
          return Err("cannot mix ',' and '|' in one group");
        }
        ++pos_;
        SILK_ASSIGN_OR_RETURN(ContentParticle next, ParseParticle());
        parts.push_back(std::move(next));
        SkipSpace();
      }
      if (!Lookahead(")")) return Err("expected ')'");
      ++pos_;
      if (parts.size() == 1) {
        p = std::move(parts[0]);
        // An explicit occurrence on the group overrides/combines; the common
        // DTD usage has at most one, so a trailing operator wins.
        auto occ = ParseOccurrence();
        if (occ != ContentParticle::Occurrence::kOne) p.occurrence = occ;
        return p;
      }
      p.kind = sep == '|' ? ContentParticle::Kind::kChoice
                          : ContentParticle::Kind::kSequence;
      p.children = std::move(parts);
      p.occurrence = ParseOccurrence();
      return p;
    }
    SILK_ASSIGN_OR_RETURN(p.name, ParseName());
    p.kind = ContentParticle::Kind::kName;
    p.occurrence = ParseOccurrence();
    return p;
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // content-particle groups open while parsing
};

}  // namespace

Result<Dtd> ParseDtd(std::string_view text) {
  DtdParser parser(text);
  return parser.Parse();
}

}  // namespace silkroute::xml
