#include "sql/parser.h"

#include <algorithm>
#include <cstdlib>

#include "common/nesting.h"
#include "sql/lexer.h"

namespace silkroute::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryPtr> ParseQueryTop() {
    SILK_ASSIGN_OR_RETURN(QueryPtr q, ParseQueryBody());
    if (!Peek().IsKeyword("") && Peek().type != TokenType::kEnd) {
      return Err("unexpected trailing token '" + Peek().text + "'");
    }
    return q;
  }

  Result<ExprPtr> ParseExprTop() {
    SILK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().type != TokenType::kEnd) {
      return Err("unexpected trailing token '" + Peek().text + "'");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool MatchSymbol(std::string_view s) {
    if (Peek().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(std::string_view kw) {
    if (!Match(kw)) {
      return Status::ParseError("expected '" + std::string(kw) + "', got '" +
                                Peek().text + "' at offset " +
                                std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view s) {
    if (!MatchSymbol(s)) {
      return Status::ParseError("expected '" + std::string(s) + "', got '" +
                                Peek().text + "' at offset " +
                                std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  /// Records that the node just built stands on children of heights
  /// `below` and height_; refuses it past kMaxTreeHeight.
  Status Stack(size_t below) {
    height_ = std::max(below, height_) + 1;
    if (height_ <= kMaxTreeHeight) return Status::OK();
    return Status::InvalidArgument(
        "tree height " + std::to_string(height_) + " exceeds the limit of " +
        std::to_string(kMaxTreeHeight) + " at offset " +
        std::to_string(Peek().offset));
  }

  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset));
  }

  /// True if, skipping leading '(' tokens from `ahead`, the next token is the
  /// SELECT keyword — i.e. a parenthesized group is a query, not a join.
  bool LooksLikeQuery(size_t ahead) const {
    size_t i = ahead;
    while (Peek(i).IsSymbol("(")) ++i;
    return Peek(i).IsKeyword("select");
  }

  /// Leaves in height_ the height of the tallest tree the query holds:
  /// a select list item, FROM item, WHERE or ORDER BY key of any core.
  Result<QueryPtr> ParseQueryBody() {
    auto query = std::make_unique<Query>();
    SILK_RETURN_IF_ERROR(ParseQueryTerm(query.get()));
    size_t tallest = height_;
    while (Match("union")) {
      Match("all");  // UNION and UNION ALL both accepted (streams are keyed)
      SILK_RETURN_IF_ERROR(ParseQueryTerm(query.get()));
      tallest = std::max(tallest, height_);
    }
    if (Match("order")) {
      SILK_RETURN_IF_ERROR(Expect("by"));
      do {
        SILK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        tallest = std::max(tallest, height_);
        bool asc = true;
        if (Match("desc")) {
          asc = false;
        } else {
          Match("asc");
        }
        query->order_by.emplace_back(std::move(e), asc);
      } while (MatchSymbol(","));
    }
    height_ = tallest;
    return query;
  }

  /// Parses one UNION operand (a select core, possibly parenthesized, or a
  /// parenthesized compound query) and appends its cores to `out`.
  Status ParseQueryTerm(Query* out) {
    if (Peek().IsSymbol("(") && LooksLikeQuery(1)) {
      ++pos_;  // consume '('
      NestingLevel level(&depth_);
      SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, Peek().offset));
      SILK_ASSIGN_OR_RETURN(QueryPtr inner, ParseQueryBody());
      SILK_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (!inner->order_by.empty()) {
        return Status::ParseError(
            "ORDER BY not allowed in parenthesized UNION operand");
      }
      for (auto& core : inner->cores) out->cores.push_back(std::move(core));
      return Status::OK();
    }
    SILK_ASSIGN_OR_RETURN(SelectCore core, ParseSelectCore());
    out->cores.push_back(std::move(core));
    return Status::OK();
  }

  Result<SelectCore> ParseSelectCore() {
    SILK_RETURN_IF_ERROR(Expect("select"));
    SelectCore core;
    size_t tallest = 0;
    core.distinct = Match("distinct");
    if (MatchSymbol("*")) {
      core.select_star = true;
    } else {
      do {
        SILK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        tallest = std::max(tallest, height_);
        std::string alias;
        if (Match("as")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Err("expected alias after 'as'");
          }
          alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier) {
          // Implicit alias: `expr name`.
          alias = Advance().text;
        }
        core.select_list.emplace_back(std::move(e), std::move(alias));
      } while (MatchSymbol(","));
    }
    if (Match("from")) {
      do {
        SILK_ASSIGN_OR_RETURN(TableRefPtr t, ParseTableRef());
        tallest = std::max(tallest, height_);
        core.from.push_back(std::move(t));
      } while (MatchSymbol(","));
    }
    if (Match("where")) {
      SILK_ASSIGN_OR_RETURN(core.where, ParseExpr());
      tallest = std::max(tallest, height_);
    }
    height_ = tallest;
    return core;
  }

  Result<TableRefPtr> ParseTableRef() {
    SILK_ASSIGN_OR_RETURN(TableRefPtr left, ParsePrimaryTableRef());
    size_t left_height = height_;
    while (true) {
      JoinType type;
      if (Peek().IsKeyword("join")) {
        ++pos_;
        type = JoinType::kInner;
      } else if (Peek().IsKeyword("inner") && Peek(1).IsKeyword("join")) {
        pos_ += 2;
        type = JoinType::kInner;
      } else if (Peek().IsKeyword("left")) {
        ++pos_;
        Match("outer");
        SILK_RETURN_IF_ERROR(Expect("join"));
        type = JoinType::kLeftOuter;
      } else {
        break;
      }
      SILK_ASSIGN_OR_RETURN(TableRefPtr right, ParsePrimaryTableRef());
      const size_t right_height = height_;
      SILK_RETURN_IF_ERROR(Expect("on"));
      SILK_ASSIGN_OR_RETURN(ExprPtr on, ParseExpr());
      height_ = std::max(height_, right_height);
      SILK_RETURN_IF_ERROR(Stack(left_height));
      left_height = height_;
      left = std::make_unique<JoinRef>(type, std::move(left), std::move(right),
                                       std::move(on));
    }
    height_ = left_height;
    return left;
  }

  Result<TableRefPtr> ParsePrimaryTableRef() {
    if (Peek().IsSymbol("(")) {
      NestingLevel level(&depth_);
      SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, Peek().offset));
      if (LooksLikeQuery(1)) {
        ++pos_;
        SILK_ASSIGN_OR_RETURN(QueryPtr q, ParseQueryBody());
        const size_t query_height = height_;
        SILK_RETURN_IF_ERROR(ExpectSymbol(")"));
        std::string alias;
        if (Match("as")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Err("expected alias after 'as'");
          }
          alias = Advance().text;
        } else if (Peek().type == TokenType::kIdentifier) {
          alias = Advance().text;
        }
        if (alias.empty()) {
          return Err("derived table requires an alias");
        }
        // The derived table stands on its query's tallest tree, so a join
        // chain over it adds to the chains inside it.
        height_ = query_height;
        SILK_RETURN_IF_ERROR(Stack(0));
        return TableRefPtr(
            std::make_unique<DerivedTableRef>(std::move(q), alias));
      }
      // Parenthesized join tree.
      ++pos_;
      SILK_ASSIGN_OR_RETURN(TableRefPtr inner, ParseTableRef());
      SILK_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (Peek().type != TokenType::kIdentifier) {
      return Err("expected table name, got '" + Peek().text + "'");
    }
    std::string table = Advance().text;
    height_ = 1;
    std::string alias;
    if (Match("as")) {
      if (Peek().type != TokenType::kIdentifier) {
        return Err("expected alias after 'as'");
      }
      alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      alias = Advance().text;
    }
    return TableRefPtr(std::make_unique<BaseTableRef>(table, alias));
  }

  // ---- expressions (precedence climbing) ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    SILK_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (Match("or")) {
      const size_t left_height = height_;
      SILK_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      SILK_RETURN_IF_ERROR(Stack(left_height));
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    SILK_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (Match("and")) {
      const size_t left_height = height_;
      SILK_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      SILK_RETURN_IF_ERROR(Stack(left_height));
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (Match("not")) {
      NestingLevel level(&depth_);
      SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, Peek().offset));
      SILK_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      SILK_RETURN_IF_ERROR(Stack(0));
      return ExprPtr(std::make_unique<NotExpr>(std::move(e)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    SILK_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    const size_t left_height = height_;
    if (Match("is")) {
      bool negated = Match("not");
      SILK_RETURN_IF_ERROR(Expect("null"));
      SILK_RETURN_IF_ERROR(Stack(0));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(left), negated));
    }
    BinaryOp op;
    if (MatchSymbol("=")) {
      op = BinaryOp::kEq;
    } else if (MatchSymbol("<>")) {
      op = BinaryOp::kNe;
    } else if (MatchSymbol("<=")) {
      op = BinaryOp::kLe;
    } else if (MatchSymbol(">=")) {
      op = BinaryOp::kGe;
    } else if (MatchSymbol("<")) {
      op = BinaryOp::kLt;
    } else if (MatchSymbol(">")) {
      op = BinaryOp::kGt;
    } else {
      return left;
    }
    SILK_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    SILK_RETURN_IF_ERROR(Stack(left_height));
    return ExprPtr(
        std::make_unique<BinaryExpr>(op, std::move(left), std::move(right)));
  }

  Result<ExprPtr> ParseAdditive() {
    SILK_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      const size_t left_height = height_;
      BinaryOp op;
      if (MatchSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (MatchSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      SILK_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      SILK_RETURN_IF_ERROR(Stack(left_height));
      left = std::make_unique<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    SILK_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());
    while (true) {
      const size_t left_height = height_;
      BinaryOp op;
      if (MatchSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (MatchSymbol("/")) {
        op = BinaryOp::kDiv;
      } else {
        return left;
      }
      SILK_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      SILK_RETURN_IF_ERROR(Stack(left_height));
      left = std::make_unique<BinaryExpr>(op, std::move(left),
                                          std::move(right));
    }
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    height_ = 1;
    switch (t.type) {
      case TokenType::kInteger: {
        int64_t v = std::strtoll(Advance().text.c_str(), nullptr, 10);
        return IntLit(v);
      }
      case TokenType::kFloat: {
        double v = std::strtod(Advance().text.c_str(), nullptr);
        return Lit(Value::Double(v));
      }
      case TokenType::kString:
        return StrLit(Advance().text);
      case TokenType::kKeyword:
        if (t.text == "null") {
          ++pos_;
          return NullLit();
        }
        return Err("unexpected keyword '" + t.text + "' in expression");
      case TokenType::kIdentifier: {
        std::string first = Advance().text;
        if (MatchSymbol(".")) {
          if (Peek().type != TokenType::kIdentifier) {
            return Err("expected column name after '.'");
          }
          std::string col = Advance().text;
          return Col(std::move(first), std::move(col));
        }
        return Col(std::move(first));
      }
      case TokenType::kSymbol:
        if (t.text == "(") {
          ++pos_;
          NestingLevel level(&depth_);
          SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, Peek().offset));
          SILK_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          SILK_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        if (t.text == "-") {
          ++pos_;
          NestingLevel level(&depth_);
          SILK_RETURN_IF_ERROR(level.Check(kMaxNestingDepth, Peek().offset));
          SILK_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
          SILK_RETURN_IF_ERROR(Stack(0));
          return ExprPtr(std::make_unique<BinaryExpr>(
              BinaryOp::kSub, IntLit(0), std::move(e)));
        }
        return Err("unexpected symbol '" + t.text + "' in expression");
      case TokenType::kEnd:
        return Err("unexpected end of input in expression");
    }
    return Err("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // nesting levels held (NestingLevel)
  size_t height_ = 0;  // height of the tree the last Parse* call built
};

}  // namespace

Result<QueryPtr> ParseQuery(std::string_view sql) {
  SILK_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseQueryTop();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  SILK_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseExprTop();
}

}  // namespace silkroute::sql
