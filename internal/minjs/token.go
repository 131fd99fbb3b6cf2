// Package minjs implements a small JavaScript-subset interpreter.
//
// The subset is chosen to cover everything the OpenWPM reliability study
// exercises at the JavaScript object-model level: property descriptors with
// getters and setters, prototype chains, closures, Function.prototype.toString,
// for…in enumeration, try/catch with Error stack traces, eval, and a host
// function bridge through which a browser object model (package jsdom) is
// exposed. Scripts are parsed into an AST, compiled once to bytecode
// (compiled programs are safe for reuse across interpreter instances) and
// run on a VM against a realm holding the global object. The VM is the only
// engine; the tree-walker it was built against survives in the package's
// tests as the reference oracle for differential testing. A host can record
// what a run read from its realm (Tracer) and what it created (Graph), and
// reproduce the run in another realm without executing it (Graph.Instantiate,
// Interp.Charge).
package minjs

import "fmt"

// TokenKind enumerates lexical token categories.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct   // operators and punctuation
	TokKeyword // reserved words
)

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // identifier name, punctuation, keyword, or decoded string value
	Num  float64
	Pos  int // byte offset of the token start
	Line int // 1-based line number
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	case TokNumber:
		return fmt.Sprintf("%v", t.Num)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true, "return": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"break": true, "continue": true, "new": true, "delete": true,
	"typeof": true, "instanceof": true, "in": true, "of": true,
	"try": true, "catch": true, "finally": true, "throw": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"this": true, "switch": true, "case": true, "default": true,
}

// isIdentStart reports whether c can start an identifier.
func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// isIdentPart reports whether c can continue an identifier.
func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
