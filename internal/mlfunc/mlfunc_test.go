package mlfunc

import (
	"strings"
	"testing"

	"cftcg/internal/model"
)

func TestLexerTokens(t *testing.T) {
	toks, err := LexAll("if (x >= 10) { y = -2.5e3; } % trailing comment")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != TokEOF {
			texts = append(texts, tok.Text)
		}
	}
	want := []string{"if", "(", "x", ">=", "10", ")", "{", "y", "=", "-", "2.5e3", ";", "}"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens: %v, want %v", texts, want)
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := LexAll("a = 1; // c++ style\nb = 2; % matlab style\n")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			count++
		}
	}
	if count != 2 {
		t.Errorf("identifiers after comment stripping: %d, want 2", count)
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := LexAll("a = $;"); err == nil {
		t.Error("expected lex error for '$'")
	}
}

func TestParseFullFunction(t *testing.T) {
	f, err := Parse("demo", `
input  int32 x;
output int32 y = 5;
state  int16 acc = -3;
var    bool  flag = true;

if (x > 0 && flag) {
    acc = acc + 1;
} elseif (x < -10) {
    acc = 0;
} else {
    flag = false;
}
for i = 4 { y = y + i; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Inputs()) != 1 || len(f.Outputs()) != 1 || len(f.States()) != 1 || len(f.Locals()) != 1 {
		t.Fatalf("declaration classes wrong: %+v", f.Decls)
	}
	if f.Outputs()[0].Init != 5 || f.States()[0].Init != -3 || f.Locals()[0].Init != 1 {
		t.Errorf("initializers wrong: %+v", f.Decls)
	}
	if f.Lookup("acc") == nil || f.Lookup("ghost") != nil {
		t.Error("Lookup")
	}
	if len(f.Body) != 2 {
		t.Fatalf("want 2 statements, got %d", len(f.Body))
	}
	iff, ok := f.Body[0].(*If)
	if !ok {
		t.Fatalf("first statement is %T", f.Body[0])
	}
	if len(iff.Else) != 1 {
		t.Fatal("elseif should nest in Else")
	}
	if _, ok := iff.Else[0].(*If); !ok {
		t.Fatal("elseif should be an If in Else")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undeclared assign", "y = 1;", "undeclared"},
		{"undeclared ref", "output int32 y; y = q;", "undeclared"},
		{"dup decl", "input int32 a; input int32 a;", "duplicate"},
		{"missing semi", "output int32 y; y = 1", `";"`},
		{"bad loop count", "output int32 y; for i = x { y = 1; }", "integer literal"},
		{"loop shadows", "input int32 i; output int32 y; for i = 3 { y = 1; }", "shadows"},
		{"unknown fn", "output int32 y; y = hypot(1, 2);", "unknown function"},
		{"abs arity", "output int32 y; y = abs(1, 2);", "abs takes 1"},
		{"sat arity", "output int32 y; y = sat(1);", "sat takes 3"},
	}
	for _, c := range cases {
		if _, err := Parse("t", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestParseExprTypesAndConditions(t *testing.T) {
	syms := map[string]model.DType{"a": model.Int8, "b": model.Float32, "ok": model.Bool}
	e, err := ParseExpr("a > 3 && (b < 2.5 || !ok)", syms)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type() != model.Bool {
		t.Errorf("expression type %s, want boolean", e.Type())
	}
	conds := Conditions(e)
	if len(conds) != 3 {
		t.Fatalf("want 3 leaf conditions, got %d", len(conds))
	}
	// The leaves are a>3, b<2.5, ok — each either relational or a bool ref.
	if ExprString(conds[0]) != "(a > 3)" {
		t.Errorf("first condition: %s", ExprString(conds[0]))
	}
	if ExprString(conds[2]) != "ok" {
		t.Errorf("third condition: %s", ExprString(conds[2]))
	}
}

func TestParseStmtsAgainstSymbols(t *testing.T) {
	syms := map[string]model.DType{"n": model.Int32, "go_": model.Bool}
	stmts, err := ParseStmts("if (go_) { n = n + 1; }", syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("want 1 stmt, got %d", len(stmts))
	}
	if _, err := ParseStmts("m = 1;", syms); err == nil {
		t.Error("assignment to unknown symbol should fail")
	}
}

func TestPromote(t *testing.T) {
	cases := []struct{ a, b, want model.DType }{
		{model.Int8, model.Int32, model.Int32},
		{model.UInt8, model.Int16, model.Int16},
		{model.Int32, model.Float32, model.Float32},
		{model.Float32, model.Float64, model.Float64},
		{model.Bool, model.Bool, model.Int32}, // bool arithmetic in int32
		{model.Bool, model.Int8, model.Int8},
	}
	for _, c := range cases {
		if got := Promote(c.a, c.b); got != c.want {
			t.Errorf("Promote(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := Promote(c.b, c.a); got != c.want && !(c.a == model.Bool && c.b == model.Bool) {
			t.Errorf("Promote is not symmetric for (%s, %s)", c.b, c.a)
		}
	}
}

func TestPrecedence(t *testing.T) {
	syms := map[string]model.DType{"a": model.Int32, "b": model.Int32, "c": model.Int32}
	e, err := ParseExpr("a + b * c > 10", syms)
	if err != nil {
		t.Fatal(err)
	}
	// Should parse as ((a + (b*c)) > 10).
	if got := ExprString(e); got != "((a + (b * c)) > 10)" {
		t.Errorf("precedence: %s", got)
	}
	e2, err := ParseExpr("a > 1 && b > 2 || c > 3", syms)
	if err != nil {
		t.Fatal(err)
	}
	if got := ExprString(e2); got != "(((a > 1) && (b > 2)) || (c > 3))" {
		t.Errorf("bool precedence: %s", got)
	}
}

func TestParseWhile(t *testing.T) {
	f, err := Parse("w", `
input  int32 x;
output int32 n = 0;
while (x > 0) {
    x = x / 2;
    n = n + 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	wl, ok := f.Body[0].(*While)
	if !ok {
		t.Fatalf("statement is %T", f.Body[0])
	}
	if len(wl.Body) != 2 {
		t.Errorf("while body: %d statements", len(wl.Body))
	}
	if got := ExprString(wl.Cond); got != "(x > 0)" {
		t.Errorf("cond: %s", got)
	}
	// Errors surface.
	if _, err := Parse("w", "output int32 n;\nwhile x > 0 { n = 1; }"); err == nil {
		t.Error("while without parentheses accepted")
	}
	if _, err := Parse("w", "output int32 n;\nwhile (q > 0) { n = 1; }"); err == nil {
		t.Error("undeclared variable in while cond accepted")
	}
}

func TestBoolInitializers(t *testing.T) {
	f, err := Parse("b", "output bool on = true;\noutput bool off = false;\non = !off;")
	if err != nil {
		t.Fatal(err)
	}
	if f.Outputs()[0].Init != 1 || f.Outputs()[1].Init != 0 {
		t.Errorf("bool initializers: %+v", f.Outputs())
	}
}
