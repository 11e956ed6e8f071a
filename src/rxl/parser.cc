#include "rxl/parser.h"

#include <cctype>
#include <cstdlib>

#include "common/nesting.h"

namespace silkroute::rxl {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<RxlQuery> Parse() {
    RxlQuery query;
    SILK_ASSIGN_OR_RETURN(query.root, ParseBlock());
    SkipSpace();
    if (pos_ < text_.size()) {
      return Err("trailing input after query");
    }
    return query;
  }

 private:
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        continue;
      }
      // Line comments: `-- ...`.
      if (text_.substr(pos_, 2) == "--") {
        size_t end = text_.find('\n', pos_);
        pos_ = end == std::string_view::npos ? text_.size() : end + 1;
        continue;
      }
      break;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool LookaheadWord(std::string_view word) {
    SkipSpace();
    if (text_.substr(pos_, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[after])) ||
         text_[after] == '_')) {
      return false;  // prefix of a longer identifier
    }
    return true;
  }

  bool ConsumeWord(std::string_view word) {
    if (!LookaheadWord(word)) return false;
    pos_ += word.size();
    return true;
  }

  bool ConsumeChar(char c) {
    SkipSpace();
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseIdentifier() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<FieldRef> ParseFieldRef() {
    SkipSpace();
    if (Peek() != '$') return Err("expected '$'");
    ++pos_;
    FieldRef ref;
    SILK_ASSIGN_OR_RETURN(ref.var, ParseIdentifier());
    if (!ConsumeChar('.')) return Err("expected '.' after tuple variable");
    SILK_ASSIGN_OR_RETURN(ref.field, ParseIdentifier());
    return ref;
  }

  Result<Operand> ParseOperand() {
    SkipSpace();
    Operand op;
    char c = Peek();
    if (c == '$') {
      op.kind = Operand::Kind::kField;
      SILK_ASSIGN_OR_RETURN(op.field, ParseFieldRef());
      return op;
    }
    op.kind = Operand::Kind::kLiteral;
    if (c == '\'') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size()) {
        if (text_[pos_] == '\'') {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
            s.push_back('\'');
            pos_ += 2;
            continue;
          }
          ++pos_;
          op.literal = Value::String(std::move(s));
          return op;
        }
        s.push_back(text_[pos_++]);
      }
      return Err("unterminated string literal");
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      size_t start = pos_;
      if (c == '-') ++pos_;
      bool is_float = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.')) {
        if (text_[pos_] == '.') is_float = true;
        ++pos_;
      }
      std::string num(text_.substr(start, pos_ - start));
      if (is_float) {
        op.literal = Value::Double(std::strtod(num.c_str(), nullptr));
      } else {
        op.literal = Value::Int64(std::strtoll(num.c_str(), nullptr, 10));
      }
      return op;
    }
    return Err("expected operand");
  }

  Result<CondOp> ParseCondOp() {
    SkipSpace();
    if (text_.substr(pos_, 2) == "<>") {
      pos_ += 2;
      return CondOp::kNe;
    }
    if (text_.substr(pos_, 2) == "<=") {
      pos_ += 2;
      return CondOp::kLe;
    }
    if (text_.substr(pos_, 2) == ">=") {
      pos_ += 2;
      return CondOp::kGe;
    }
    char c = Peek();
    if (c == '=') {
      ++pos_;
      return CondOp::kEq;
    }
    if (c == '<') {
      ++pos_;
      return CondOp::kLt;
    }
    if (c == '>') {
      ++pos_;
      return CondOp::kGt;
    }
    return Err("expected comparison operator");
  }

  Result<Block> ParseBlock() {
    Block block;
    if (ConsumeWord("from")) {
      do {
        TableBinding binding;
        SILK_ASSIGN_OR_RETURN(binding.table, ParseIdentifier());
        SkipSpace();
        if (Peek() != '$') return Err("expected '$variable' in from clause");
        ++pos_;
        SILK_ASSIGN_OR_RETURN(binding.var, ParseIdentifier());
        block.from.push_back(std::move(binding));
      } while (ConsumeChar(','));
    }
    if (ConsumeWord("where")) {
      do {
        Condition cond;
        SILK_ASSIGN_OR_RETURN(cond.lhs, ParseOperand());
        SILK_ASSIGN_OR_RETURN(cond.op, ParseCondOp());
        SILK_ASSIGN_OR_RETURN(cond.rhs, ParseOperand());
        block.where.push_back(std::move(cond));
      } while (ConsumeChar(','));
    }
    if (!ConsumeWord("construct")) {
      return Err("expected 'construct'");
    }
    SILK_ASSIGN_OR_RETURN(block.construct,
                          ParseContents(/*inside_element=*/false));
    if (block.construct.empty()) {
      return Err("construct clause is empty");
    }
    return block;
  }

  /// Parses a run of contents. Stops (without consuming) at '}' and, when
  /// inside an element, at '</'.
  Result<std::vector<Content>> ParseContents(bool inside_element) {
    std::vector<Content> contents;
    while (true) {
      // Literal text is only meaningful inside an element; elsewhere skip
      // whitespace eagerly.
      if (!inside_element) SkipSpace();
      if (pos_ >= text_.size()) break;
      char c = text_[pos_];
      if (c == '}') break;
      if (c == '<') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
          if (!inside_element) return Err("unexpected close tag");
          break;
        }
        Content content;
        content.kind = Content::Kind::kElement;
        SILK_ASSIGN_OR_RETURN(content.element, ParseElement());
        contents.push_back(std::move(content));
        continue;
      }
      if (c == '{') {
        ++pos_;
        NestingLevel level(&depth_);
        SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, pos_));
        Content content;
        content.kind = Content::Kind::kBlock;
        auto block = std::make_unique<Block>();
        SILK_ASSIGN_OR_RETURN(*block, ParseBlock());
        content.block = std::move(block);
        if (!ConsumeChar('}')) return Err("expected '}'");
        contents.push_back(std::move(content));
        continue;
      }
      if (c == '$') {
        Content content;
        content.kind = Content::Kind::kFieldRef;
        SILK_ASSIGN_OR_RETURN(content.field, ParseFieldRef());
        contents.push_back(std::move(content));
        continue;
      }
      if (c == '"' && inside_element) {
        // Quoted literal text (the form ToString emits): supports escaped
        // quote, backslash, newline, and tab; preserves whitespace exactly.
        ++pos_;
        std::string text;
        bool closed = false;
        while (pos_ < text_.size()) {
          char ch = text_[pos_++];
          if (ch == '"') {
            closed = true;
            break;
          }
          if (ch == '\\' && pos_ < text_.size()) {
            char esc = text_[pos_++];
            switch (esc) {
              case 'n':
                text.push_back('\n');
                break;
              case 't':
                text.push_back('\t');
                break;
              default:
                text.push_back(esc);
            }
            continue;
          }
          text.push_back(ch);
        }
        if (!closed) return Err("unterminated quoted text");
        Content content;
        content.kind = Content::Kind::kText;
        content.text = std::move(text);
        contents.push_back(std::move(content));
        continue;
      }
      if (!inside_element) {
        // At block level only elements, nested blocks, and field refs are
        // allowed.
        break;
      }
      // Literal text until the next markup character (or a quoted-text
      // opener).
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '<' && text_[pos_] != '{' &&
             text_[pos_] != '$' && text_[pos_] != '}' && text_[pos_] != '"') {
        ++pos_;
      }
      std::string raw(text_.substr(start, pos_ - start));
      // Drop whitespace-only runs (formatting noise).
      bool all_space = true;
      for (char ch : raw) {
        if (!std::isspace(static_cast<unsigned char>(ch))) {
          all_space = false;
          break;
        }
      }
      if (!all_space) {
        Content content;
        content.kind = Content::Kind::kText;
        content.text = std::move(raw);
        contents.push_back(std::move(content));
      }
    }
    return contents;
  }

  Result<std::unique_ptr<Element>> ParseElement() {
    if (Peek() != '<') return Err("expected '<'");
    NestingLevel level(&depth_);
    SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, pos_));
    ++pos_;
    auto element = std::make_unique<Element>();
    SILK_ASSIGN_OR_RETURN(element->tag, ParseIdentifier());
    SkipSpace();
    // Optional explicit Skolem term: ID=F($v.x, ...).
    if (ConsumeWord("ID")) {
      if (!ConsumeChar('=')) return Err("expected '=' after ID");
      SkolemTerm term;
      SILK_ASSIGN_OR_RETURN(term.function, ParseIdentifier());
      if (!ConsumeChar('(')) return Err("expected '(' in Skolem term");
      SkipSpace();
      if (Peek() != ')') {
        do {
          SILK_ASSIGN_OR_RETURN(FieldRef arg, ParseFieldRef());
          term.args.push_back(std::move(arg));
        } while (ConsumeChar(','));
      }
      if (!ConsumeChar(')')) return Err("expected ')' in Skolem term");
      element->skolem = std::move(term);
      SkipSpace();
    }
    if (text_.substr(pos_, 2) == "/>") {
      pos_ += 2;
      return element;
    }
    if (!ConsumeChar('>')) return Err("expected '>'");
    SILK_ASSIGN_OR_RETURN(element->content,
                          ParseContents(/*inside_element=*/true));
    SkipSpace();
    if (text_.substr(pos_, 2) != "</") {
      return Err("expected close tag for <" + element->tag + ">");
    }
    pos_ += 2;
    SILK_ASSIGN_OR_RETURN(std::string close_name, ParseIdentifier());
    if (close_name != element->tag) {
      return Err("mismatched close tag </" + close_name + "> for <" +
                 element->tag + ">");
    }
    if (!ConsumeChar('>')) return Err("expected '>' in close tag");
    return element;
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // nesting levels held (NestingLevel)
};

}  // namespace

Result<RxlQuery> ParseRxl(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace silkroute::rxl
