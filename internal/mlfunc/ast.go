package mlfunc

import (
	"fmt"
	"strings"

	"cftcg/internal/model"
)

// VarClass classifies a declared variable.
type VarClass uint8

// Variable classes.
const (
	ClassInput VarClass = iota
	ClassOutput
	ClassState
	ClassLocal
)

func (c VarClass) String() string {
	switch c {
	case ClassInput:
		return "input"
	case ClassOutput:
		return "output"
	case ClassState:
		return "state"
	default:
		return "var"
	}
}

// Decl is one variable declaration with optional initializer (a constant).
type Decl struct {
	Class VarClass
	Type  model.DType
	Name  string
	Init  float64 // initial value (outputs/states/locals); inputs ignore it
	Line  int
}

// Function is a parsed and type-checked MATLAB Function body: declarations
// in source order plus the statement list.
type Function struct {
	Name   string
	Decls  []Decl
	Body   []Stmt
	byName map[string]*Decl
}

// Lookup returns the declaration of name, or nil.
func (f *Function) Lookup(name string) *Decl { return f.byName[name] }

// Inputs returns the input declarations in source order.
func (f *Function) Inputs() []Decl { return f.declsOf(ClassInput) }

// Outputs returns the output declarations in source order.
func (f *Function) Outputs() []Decl { return f.declsOf(ClassOutput) }

// States returns the state declarations in source order.
func (f *Function) States() []Decl { return f.declsOf(ClassState) }

// Locals returns the local variable declarations in source order.
func (f *Function) Locals() []Decl { return f.declsOf(ClassLocal) }

func (f *Function) declsOf(c VarClass) []Decl {
	var out []Decl
	for _, d := range f.Decls {
		if d.Class == c {
			out = append(out, d)
		}
	}
	return out
}

// --- statements ---------------------------------------------------------

// Stmt is a statement node.
type Stmt interface {
	stmt()
}

// Assign assigns the value of Expr to the named variable.
type Assign struct {
	Name string
	Rhs  Expr
	Line int
}

// If is an if/elseif/else chain. Each branch after the first acts as
// "elseif"; Else may be empty. Every If is a coverage decision (mode (d)
// in the paper's instrumentation taxonomy).
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // possibly another single If for elseif chains
	Line int
}

// For is a constant-bound counting loop: for i = 0 .. N-1. The bounds are
// compile-time constants so code generation can unroll it.
type For struct {
	Var   string
	Count int64
	Body  []Stmt
	Line  int
}

// While is a condition-bound loop. Generated code enforces MaxWhileIter
// iterations as a hard cap (embedded code must terminate); the condition is
// a coverage decision like an if's. Every While is a decision.
type While struct {
	Cond Expr
	Body []Stmt
	Line int
}

// MaxWhileIter caps while-loop iterations in both execution engines.
const MaxWhileIter = 1000

func (*Assign) stmt() {}
func (*If) stmt()     {}
func (*For) stmt()    {}
func (*While) stmt()  {}

// --- expressions ----------------------------------------------------------

// Expr is an expression node. Type is filled in by the type checker.
type Expr interface {
	Type() model.DType
	// Emit renders the expression as C-like source.
	Emit(w *strings.Builder)
}

// Lit is a numeric or boolean literal.
type Lit struct {
	Val float64
	T   model.DType
}

// Ref reads a declared variable.
type Ref struct {
	Name string
	T    model.DType
}

// Unary applies "-", "!" or "~" to X.
type Unary struct {
	Op string
	X  Expr
	T  model.DType
}

// Binary applies an arithmetic, relational or logical operator.
// Ops: + - * / %  |  == ~= < <= > >=  |  && ||
type Binary struct {
	Op   string
	X, Y Expr
	T    model.DType
}

// Call invokes a builtin: abs(x), min(x,y), max(x,y), sat(x,lo,hi).
type Call struct {
	Fn   string
	Args []Expr
	T    model.DType
}

// Type implementations.
func (e *Lit) Type() model.DType    { return e.T }
func (e *Ref) Type() model.DType    { return e.T }
func (e *Unary) Type() model.DType  { return e.T }
func (e *Binary) Type() model.DType { return e.T }
func (e *Call) Type() model.DType   { return e.T }

// IsBoolOp reports whether op is a short-circuit logical operator.
func IsBoolOp(op string) bool { return op == "&&" || op == "||" }

// IsRelOp reports whether op is a relational operator.
func IsRelOp(op string) bool {
	switch op {
	case "==", "~=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// --- expression source (the coverage labels of script conditions) -------

// Emit renders the literal.
func (e *Lit) Emit(w *strings.Builder) {
	if e.T == model.Bool {
		if e.Val != 0 {
			w.WriteString("true")
		} else {
			w.WriteString("false")
		}
		return
	}
	fmt.Fprintf(w, "%g", e.Val)
}

// Emit renders the variable reference.
func (e *Ref) Emit(w *strings.Builder) { w.WriteString(e.Name) }

// Emit renders the unary expression.
func (e *Unary) Emit(w *strings.Builder) {
	op := e.Op
	if op == "~" {
		op = "!"
	}
	w.WriteString(op)
	w.WriteByte('(')
	e.X.Emit(w)
	w.WriteByte(')')
}

// Emit renders the binary expression.
func (e *Binary) Emit(w *strings.Builder) {
	w.WriteByte('(')
	e.X.Emit(w)
	op := e.Op
	if op == "~=" {
		op = "!="
	}
	w.WriteByte(' ')
	w.WriteString(op)
	w.WriteByte(' ')
	e.Y.Emit(w)
	w.WriteByte(')')
}

// Emit renders the builtin call.
func (e *Call) Emit(w *strings.Builder) {
	w.WriteString(e.Fn)
	w.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			w.WriteString(", ")
		}
		a.Emit(w)
	}
	w.WriteByte(')')
}
