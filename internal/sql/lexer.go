// Package sql is the engine's SQL front-end: a hand-written lexer, a
// recursive-descent parser producing a small AST, and a binder that
// resolves statements against a catalog into typed, column-indexed form
// ready for the repro facade to execute.
//
// The dialect covers the engine's whole surface — SELECT with
// conjunctive predicates (=, !=, <, <=, >, >=, BETWEEN, IN) and LIMIT,
// INSERT, DELETE, CREATE TABLE / INDEX / CORRELATION MAP, EXPLAIN, the
// advisor verbs (ADVISE CM FOR, SHOW SOFT FDS) and the introspection
// verbs (SHOW TABLES / INDEXES / CMS / STATS). See the README's "SQL
// dialect" section for the grammar.
package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// TokenKind classifies a lexical token.
type TokenKind int

// The token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokFloat
	TokString
	TokLParen
	TokRParen
	TokComma
	TokSemi
	TokStar
	TokEq // =
	TokNe // != or <>
	TokLt // <
	TokLe // <=
	TokGt // >
	TokGe // >=
)

// String names the token kind for error messages.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer"
	case TokFloat:
		return "float"
	case TokString:
		return "string"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokSemi:
		return "';'"
	case TokStar:
		return "'*'"
	case TokEq:
		return "'='"
	case TokNe:
		return "'!='"
	case TokLt:
		return "'<'"
	case TokLe:
		return "'<='"
	case TokGt:
		return "'>'"
	case TokGe:
		return "'>='"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string  // identifier or string payload, or the literal digits
	Int  int64   // TokInt payload
	Flt  float64 // TokFloat payload
	Pos  int
}

// lex tokenizes src in full. It never panics: malformed input returns an
// error naming the offending byte offset.
func lex(src string) ([]Token, error) {
	// Room for a token per four source bytes (rounded up) plus EOF covers
	// ordinary SQL in one allocation instead of a doubling series; denser
	// input still grows by append.
	toks := make([]Token, 0, len(src)/4+2)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			// SQL line comment.
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(':
			toks = append(toks, Token{Kind: TokLParen, Pos: i})
			i++
		case c == ')':
			toks = append(toks, Token{Kind: TokRParen, Pos: i})
			i++
		case c == ',':
			toks = append(toks, Token{Kind: TokComma, Pos: i})
			i++
		case c == ';':
			toks = append(toks, Token{Kind: TokSemi, Pos: i})
			i++
		case c == '*':
			toks = append(toks, Token{Kind: TokStar, Pos: i})
			i++
		case c == '=':
			toks = append(toks, Token{Kind: TokEq, Pos: i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, Token{Kind: TokNe, Pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: stray '!' at offset %d (did you mean '!=')", i)
			}
		case c == '<':
			switch {
			case i+1 < len(src) && src[i+1] == '=':
				toks = append(toks, Token{Kind: TokLe, Pos: i})
				i += 2
			case i+1 < len(src) && src[i+1] == '>':
				toks = append(toks, Token{Kind: TokNe, Pos: i})
				i += 2
			default:
				toks = append(toks, Token{Kind: TokLt, Pos: i})
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, Token{Kind: TokGe, Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokGt, Pos: i})
				i++
			}
		case c == '\'' || c == '"':
			tok, n, err := lexString(src, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = n
		case c >= '0' && c <= '9', c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9',
			c == '-' && i+1 < len(src) && (src[i+1] >= '0' && src[i+1] <= '9' || src[i+1] == '.'):
			tok, n, err := lexNumber(src, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = n
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[start:i], Pos: start})
		default:
			return nil, fmt.Errorf("sql: unexpected byte %q at offset %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: len(src)})
	return toks, nil
}

// lexString scans a quoted string starting at src[i] (the opening quote).
// A doubled quote inside the string escapes itself, SQL-style.
func lexString(src string, i int) (Token, int, error) {
	quote := src[i]
	start := i
	i++
	var sb strings.Builder
	for i < len(src) {
		c := src[i]
		if c == quote {
			if i+1 < len(src) && src[i+1] == quote {
				sb.WriteByte(quote)
				i += 2
				continue
			}
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, i + 1, nil
		}
		sb.WriteByte(c)
		i++
	}
	return Token{}, 0, fmt.Errorf("sql: unterminated string starting at offset %d", start)
}

// lexNumber scans an optionally signed integer or float literal.
func lexNumber(src string, i int) (Token, int, error) {
	start := i
	if src[i] == '-' {
		i++
	}
	isFloat := false
	for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
		if src[i] == '.' {
			if isFloat {
				return Token{}, 0, fmt.Errorf("sql: malformed number at offset %d", start)
			}
			isFloat = true
		}
		i++
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		isFloat = true
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if i >= len(src) || src[i] < '0' || src[i] > '9' {
			return Token{}, 0, fmt.Errorf("sql: malformed exponent at offset %d", start)
		}
		for i < len(src) && src[i] >= '0' && src[i] <= '9' {
			i++
		}
	}
	text := src[start:i]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, 0, fmt.Errorf("sql: bad float literal %q at offset %d", text, start)
		}
		return Token{Kind: TokFloat, Text: text, Flt: f, Pos: start}, i, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, 0, fmt.Errorf("sql: bad integer literal %q at offset %d", text, start)
	}
	return Token{Kind: TokInt, Text: text, Int: n, Pos: start}, i, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
