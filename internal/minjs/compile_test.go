package minjs

import (
	"fmt"
	"sort"
	"testing"
)

// parserOperators sweeps every token the lexer can produce through the
// operator positions of the grammar and returns, per AST node kind, the
// operator strings the parser accepted there — the operators the compiler
// must lower.
func parserOperators() map[string]map[string]string {
	cands := append(append([]string{}, punct3...), punct2...)
	for c := byte('!'); c <= '~'; c++ {
		cands = append(cands, string(c))
	}
	for kw := range keywords {
		cands = append(cands, kw)
	}
	found := map[string]map[string]string{}
	note := func(kind, op, src string) {
		if found[kind] == nil {
			found[kind] = map[string]string{}
		}
		found[kind][op] = src
	}
	for _, tok := range cands {
		for _, src := range []string{tok + " x", "x " + tok, "x " + tok + " y"} {
			prog, err := Parse(src, "ops.js")
			if err != nil || len(prog.Body) != 1 {
				continue
			}
			es, ok := prog.Body[0].(*ExprStmt)
			if !ok {
				continue
			}
			switch x := es.X.(type) {
			case *UnaryExpr:
				note("unary", x.Op, src)
			case *PostfixExpr:
				note("postfix", x.Op, src)
			case *BinaryExpr:
				note("binary", x.Op, src)
			case *LogicalExpr:
				note("logical", x.Op, src)
			case *AssignExpr:
				note("assign", x.Op, src)
			}
		}
	}
	return found
}

// TestCompilerCoversParserOperators pins the compiler's totality: every
// operator the parser can emit has a lowering, compiles without reaching a
// noLowering arm, and evaluates on the VM exactly as on the oracle.
func TestCompilerCoversParserOperators(t *testing.T) {
	found := parserOperators()
	lowered := func(kind, op string) bool {
		switch kind {
		case "binary":
			_, ok := binOpCodes[op]
			return ok
		case "logical":
			_, ok := logicalJumps[op]
			return ok
		case "assign":
			if op == "=" {
				return true
			}
			_, ok := binOpCodes[op[:len(op)-1]]
			return ok && op[len(op)-1] == '='
		case "unary":
			switch op {
			case "typeof", "delete", "++", "--":
				return true
			}
			_, ok := unaryOpCodes[op]
			return ok
		case "postfix":
			return op == "++" || op == "--"
		}
		return false
	}
	for kind, ops := range found {
		for op, src := range ops {
			if !lowered(kind, op) {
				t.Errorf("%s operator %q (parsed from %q) has no compiler mapping", kind, op, src)
				continue
			}
			prog := MustParse(src, "ops.js")
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("compiling %q panicked: %v", src, r)
					}
				}()
				Compile(prog)
			}()
			diffRun(t, fmt.Sprintf("var x = 6, y = 3; var r; try { r = %s } catch (e) { r = e.name } [r, x, y].join()", src))
		}
	}

	// the sweep must see the whole grammar, or the checks above are vacuous
	want := map[string][]string{
		"unary":   {"!", "+", "++", "-", "--", "delete", "typeof", "~"},
		"postfix": {"++", "--"},
		"assign":  {"%=", "&=", "*=", "+=", "-=", "/=", "=", "^=", "|="},
	}
	for op := range binPrec {
		if _, ok := logicalJumps[op]; ok {
			want["logical"] = append(want["logical"], op)
		} else {
			want["binary"] = append(want["binary"], op)
		}
	}
	for kind, ops := range want {
		got := make([]string, 0, len(found[kind]))
		for op := range found[kind] {
			got = append(got, op)
		}
		sort.Strings(got)
		sort.Strings(ops)
		if fmt.Sprint(got) != fmt.Sprint(ops) {
			t.Errorf("%s operators: the parser accepts %v, want %v", kind, got, ops)
		}
	}
}
