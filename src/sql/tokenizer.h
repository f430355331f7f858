// SQL lexer used by SQL2Template (paper §IV-A). Handles quoted strings,
// numeric literals, qualified identifiers, multi-character operators, and
// strips both `--` and `/* */` comments. There is one lexer: the templater
// lexes into token views, and Tokenize copies the same views out.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dbaugur::sql {

/// Token categories relevant to templating.
enum class TokenType {
  kKeyword,      ///< SQL keyword (SELECT, FROM, ...), uppercased.
  kIdentifier,   ///< Table/column name, possibly qualified (a.b), lowercased.
  kNumber,       ///< Numeric literal.
  kString,       ///< Quoted string literal (quotes included in text).
  kOperator,     ///< = <> <= >= < > != + - * / % || :=
  kPunct,        ///< ( ) , ;
  kPlaceholder,  ///< ? — produced by templating, accepted on re-parse.
};

/// One lexical token.
struct Token {
  TokenType type = TokenType::kPunct;
  std::string text;
};

/// A token that owns no text: `text` views the statement, the lexer's
/// case-folded buffer or static text (keywords, placeholders). Valid only
/// while the statement and that buffer live unchanged.
struct TokenView {
  TokenType type = TokenType::kPunct;
  std::string_view text;
};

/// Lexes `sql` into `out`. Keywords come out uppercased and identifiers
/// lowercased into `folded`; comments are dropped. With
/// `literals_as_placeholders`, every number and quoted string comes out as a
/// `?` placeholder, and a `-` or `+` that signs a number (it follows an
/// operator, `(`, `,`, a keyword that opens an operand such as WHERE, AND or
/// THEN, or nothing) goes into the number's placeholder: `id = -5` and
/// `id = 5` lex alike, while `a - 5`, `count - 5` and `END - 5` keep their
/// minus.
/// Both buffers are cleared first, and `folded` is reserved
/// to sql.size() so no view into it moves: once both have grown to a
/// statement's size, lexing one allocates nothing.
///
/// InvalidArgument on unterminated strings/comments, unexpected characters,
/// and control bytes (embedded NUL, escape sequences); the message
/// hex-escapes non-printable bytes so a malformed input is never echoed raw.
Status Lex(std::string_view sql, bool literals_as_placeholders,
           std::vector<TokenView>* out, std::string* folded);

/// Tokenizes a SQL statement: Lex with literals kept, each token's text
/// copied out.
StatusOr<std::vector<Token>> Tokenize(std::string_view sql);

}  // namespace dbaugur::sql
