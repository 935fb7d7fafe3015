package eval

import (
	"fmt"

	"gqs/internal/cypher/ast"
	"gqs/internal/functions"
	"gqs/internal/value"
)

// Compiled is a compiled expression: a closure tree produced once at
// Prepare time and evaluated many times against slot-addressed frames
// (Ctx.Frame). Evaluation order, error identity, and error timing are
// byte-for-byte those of the tree-walking Eval — the compiler only
// removes per-evaluation dispatch, map lookups, and re-resolution of
// functions, operators, and variables. That equivalence is what lets the
// engine share one compiled plan across every oracle target without
// perturbing the canonical bug set (DESIGN.md §12).
type Compiled func(*Ctx) (value.Value, error)

// CompiledPred is a compiled predicate: Compiled plus the three-valued
// coercion EvalPredicate applies (non-boolean results are a type error).
type CompiledPred func(*Ctx) (value.Tri, error)

// Compiler lowers AST expressions to Compiled closures. The caller owns
// slot assignment: Lookup resolves the free variables of the expression
// being compiled, and Temp allocates scratch slots for comprehension and
// quantifier locals (the caller sizes its frames accordingly).
//
// A variable neither bound locally nor resolved by Lookup compiles to a
// closure that returns UnknownVariableError at evaluation time — not a
// compile error — because the interpreter, too, only raises the error if
// the expression is actually evaluated (a query producing zero rows
// never sees it).
type Compiler struct {
	// Lookup resolves a free variable to its frame slot. Nil means no
	// variables are in scope.
	Lookup func(name string) (int, bool)
	// Temp allocates a fresh frame slot for an expression-local variable
	// (list-comprehension or quantifier binder). Required if such
	// expressions can occur.
	Temp func() int
	// Special intercepts subexpressions the caller wants to compile
	// itself; the engine uses it to splice per-group aggregate results
	// into projection items. Checked before any other handling, and the
	// intercepted node's children are not compiled.
	Special func(ast.Expr) (Compiled, bool)

	// locals is the stack of expression-local binders currently in
	// scope, innermost last; it shadows Lookup.
	locals []localBinding
	// fctx is the scratch context constant folding evaluates in. Frames,
	// graph, parameters, and execution state are all nil: an expression
	// is only foldable when it touches none of them.
	fctx *Ctx
}

// slotReaders holds one shared closure per low-numbered frame slot: a
// slot read is position-only, so every reference to the same slot shares
// one immutable closure instead of allocating a capture per occurrence.
// The table is built once at init and only read afterwards, so sharing
// it across compilers and goroutines is race-free.
var slotReaders = func() [64]Compiled {
	var t [64]Compiled
	for i := range t {
		slot := i
		t[i] = func(ctx *Ctx) (value.Value, error) {
			return ctx.Frame[slot], nil
		}
	}
	return t
}()

func slotFn(slot int) Compiled {
	if slot < len(slotReaders) {
		return slotReaders[slot]
	}
	return func(ctx *Ctx) (value.Value, error) {
		return ctx.Frame[slot], nil
	}
}

type localBinding struct {
	name string
	slot int
}

// comp is the internal compilation result: the closure plus constant
// information for folding.
type comp struct {
	fn    Compiled
	val   value.Value
	konst bool
}

// Compile lowers the expression to a closure. The error return is
// reserved for AST node types the compiler does not know; every node the
// parser can produce compiles (semantic errors become closures that
// fail at evaluation time, exactly as the interpreter fails).
func (c *Compiler) Compile(e ast.Expr) (Compiled, error) {
	cp, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return cp.fn, nil
}

// CompilePred lowers the expression to a predicate, mirroring
// EvalPredicate's coercion and its exact type-error message.
func (c *Compiler) CompilePred(e ast.Expr) (CompiledPred, error) {
	cp, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return predOf(cp.fn), nil
}

func predOf(fn Compiled) CompiledPred {
	return func(ctx *Ctx) (value.Tri, error) {
		v, err := fn(ctx)
		if err != nil {
			return value.TriUnknown, err
		}
		t, ok := v.Truth()
		if !ok {
			return value.TriUnknown, fmt.Errorf("type error: expected a boolean predicate, got %s", v.Kind())
		}
		return t, nil
	}
}

func constComp(v value.Value) comp {
	return comp{fn: func(*Ctx) (value.Value, error) { return v, nil }, val: v, konst: true}
}

func errComp(err error) comp {
	return comp{fn: func(*Ctx) (value.Value, error) { return value.Null, err }}
}

// tryFold runs a closure whose operands are all constants once, at
// compile time, and replaces it with the resulting constant. A fold
// that errors keeps the closure: the error must surface at evaluation
// time (and only if evaluated), as the interpreter's would.
func (c *Compiler) tryFold(fn Compiled, allConst bool) comp {
	if !allConst {
		return comp{fn: fn}
	}
	if c.fctx == nil {
		c.fctx = &Ctx{}
	}
	v, err := fn(c.fctx)
	if err != nil {
		return comp{fn: fn}
	}
	return constComp(v)
}

func (c *Compiler) resolveVar(name string) (int, bool) {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if c.locals[i].name == name {
			return c.locals[i].slot, true
		}
	}
	if c.Lookup != nil {
		return c.Lookup(name)
	}
	return 0, false
}

func (c *Compiler) compile(e ast.Expr) (comp, error) {
	if c.Special != nil {
		if fn, ok := c.Special(e); ok {
			return comp{fn: fn}, nil
		}
	}
	// Fold maximal constant subtrees before building their closure
	// trees: evaluating the AST directly yields the same value tryFold
	// would have produced (the closures mirror Eval exactly), without
	// allocating a closure per node only to discard the whole tree.
	// Skipped under Special — an interceptable node could hide anywhere
	// in the subtree — and for bare literals, which constComp below
	// already handles without an Eval walk. An erroring constant falls
	// through to normal compilation so the error keeps surfacing at
	// evaluation time, exactly as tryFold keeps erroring closures.
	if c.Special == nil {
		if _, lit := e.(*ast.Literal); !lit && constExpr(e) {
			if c.fctx == nil {
				c.fctx = &Ctx{}
			}
			if v, err := Eval(c.fctx, e); err == nil {
				return constComp(v), nil
			}
		}
	}
	switch e := e.(type) {
	case *ast.Literal:
		return constComp(e.Val), nil
	case *ast.Variable:
		if slot, ok := c.resolveVar(e.Name); ok {
			return comp{fn: slotFn(slot)}, nil
		}
		err := &UnknownVariableError{Name: e.Name}
		return errComp(err), nil
	case *ast.Parameter:
		name := e.Name
		return comp{fn: func(ctx *Ctx) (value.Value, error) {
			v, ok := ctx.Params[name]
			if !ok {
				return value.Null, fmt.Errorf("parameter $%s is not bound", name)
			}
			return v, nil
		}}, nil
	case *ast.PropAccess:
		return c.compilePropAccess(e)
	case *ast.Binary:
		return c.compileBinary(e)
	case *ast.Unary:
		return c.compileUnary(e)
	case *ast.FuncCall:
		return c.compileFuncCall(e)
	case *ast.ListLit:
		elems := make([]Compiled, len(e.Elems))
		allConst := true
		for i, el := range e.Elems {
			cp, err := c.compile(el)
			if err != nil {
				return comp{}, err
			}
			elems[i] = cp.fn
			allConst = allConst && cp.konst
		}
		fn := func(ctx *Ctx) (value.Value, error) {
			out := make([]value.Value, len(elems))
			for i, el := range elems {
				v, err := el(ctx)
				if err != nil {
					return value.Null, err
				}
				out[i] = v
			}
			return value.ListOf(out), nil
		}
		return c.tryFold(fn, allConst), nil
	case *ast.MapLit:
		keys := e.Keys
		vals := make([]Compiled, len(e.Vals))
		allConst := true
		for i, v := range e.Vals {
			cp, err := c.compile(v)
			if err != nil {
				return comp{}, err
			}
			vals[i] = cp.fn
			allConst = allConst && cp.konst
		}
		fn := func(ctx *Ctx) (value.Value, error) {
			out := make(map[string]value.Value, len(keys))
			for i, k := range keys {
				v, err := vals[i](ctx)
				if err != nil {
					return value.Null, err
				}
				out[k] = v
			}
			return value.Map(out), nil
		}
		return c.tryFold(fn, allConst), nil
	case *ast.IndexExpr:
		sub, err := c.compile(e.Subject)
		if err != nil {
			return comp{}, err
		}
		idx, err := c.compile(e.Index)
		if err != nil {
			return comp{}, err
		}
		fn := func(ctx *Ctx) (value.Value, error) {
			s, err := sub.fn(ctx)
			if err != nil {
				return value.Null, err
			}
			i, err := idx.fn(ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Index(s, i)
		}
		return c.tryFold(fn, sub.konst && idx.konst), nil
	case *ast.SliceExpr:
		sub, err := c.compile(e.Subject)
		if err != nil {
			return comp{}, err
		}
		allConst := sub.konst
		var from, to comp
		if e.From != nil {
			if from, err = c.compile(e.From); err != nil {
				return comp{}, err
			}
			allConst = allConst && from.konst
		}
		if e.To != nil {
			if to, err = c.compile(e.To); err != nil {
				return comp{}, err
			}
			allConst = allConst && to.konst
		}
		fromFn, toFn := from.fn, to.fn
		fn := func(ctx *Ctx) (value.Value, error) {
			s, err := sub.fn(ctx)
			if err != nil {
				return value.Null, err
			}
			fromV, toV := value.Null, value.Null
			if fromFn != nil {
				if fromV, err = fromFn(ctx); err != nil {
					return value.Null, err
				}
			}
			if toFn != nil {
				if toV, err = toFn(ctx); err != nil {
					return value.Null, err
				}
			}
			return value.Slice(s, fromV, toV)
		}
		return c.tryFold(fn, allConst), nil
	case *ast.CaseExpr:
		return c.compileCase(e)
	case *ast.ListComprehension:
		return c.compileComprehension(e)
	case *ast.Quantifier:
		return c.compileQuantifier(e)
	default:
		// Mirror the interpreter: an unknown node type is a runtime
		// error, raised only if the expression is evaluated.
		err := fmt.Errorf("cannot evaluate %T", e)
		return errComp(err), nil
	}
}

func (c *Compiler) compilePropAccess(e *ast.PropAccess) (comp, error) {
	sub, err := c.compile(e.Subject)
	if err != nil {
		return comp{}, err
	}
	name := e.Name
	fn := func(ctx *Ctx) (value.Value, error) {
		s, err := sub.fn(ctx)
		if err != nil {
			return value.Null, err
		}
		switch s.Kind() {
		case value.KindNull:
			return value.Null, nil
		case value.KindMap:
			if v, ok := s.AsMap()[name]; ok {
				return v, nil
			}
			return value.Null, nil
		case value.KindNode, value.KindRel:
			return GraphCtx{G: ctx.Graph}.prop(s.EntityID(), s.Kind() == value.KindRel, name)
		default:
			return value.Null, fmt.Errorf("type error: cannot access property %s of %s", name, s.Kind())
		}
	}
	// A constant subject can only be null, a map, or a scalar (entity
	// references never appear as parsed constants), none of which touch
	// the graph — safe to fold.
	return c.tryFold(fn, sub.konst), nil
}

func (c *Compiler) compileBinary(e *ast.Binary) (comp, error) {
	l, err := c.compile(e.L)
	if err != nil {
		return comp{}, err
	}
	r, err := c.compile(e.R)
	if err != nil {
		return comp{}, err
	}
	allConst := l.konst && r.konst
	// Logical operators interpret their operands as predicates, exactly
	// as evalBinary does via EvalPredicate.
	switch e.Op {
	case ast.OpAnd, ast.OpOr, ast.OpXor:
		lp, rp := predOf(l.fn), predOf(r.fn)
		op := e.Op
		fn := func(ctx *Ctx) (value.Value, error) {
			lt, err := lp(ctx)
			if err != nil {
				return value.Null, err
			}
			rt, err := rp(ctx)
			if err != nil {
				return value.Null, err
			}
			switch op {
			case ast.OpAnd:
				return lt.And(rt).Value(), nil
			case ast.OpOr:
				return lt.Or(rt).Value(), nil
			default:
				return lt.Xor(rt).Value(), nil
			}
		}
		return c.tryFold(fn, allConst), nil
	}
	var bin func(l, r value.Value) (value.Value, error)
	switch e.Op {
	case ast.OpAdd:
		bin = value.Add
	case ast.OpSub:
		bin = value.Sub
	case ast.OpMul:
		bin = value.Mul
	case ast.OpDiv:
		bin = value.Div
	case ast.OpMod:
		bin = value.Mod
	case ast.OpPow:
		bin = value.Pow
	case ast.OpEq:
		bin = func(l, r value.Value) (value.Value, error) { return value.Equal(l, r).Value(), nil }
	case ast.OpNeq:
		bin = func(l, r value.Value) (value.Value, error) { return value.NotEqual(l, r).Value(), nil }
	case ast.OpLt:
		bin = func(l, r value.Value) (value.Value, error) { return value.Less(l, r).Value(), nil }
	case ast.OpLe:
		bin = func(l, r value.Value) (value.Value, error) { return value.LessEq(l, r).Value(), nil }
	case ast.OpGt:
		bin = func(l, r value.Value) (value.Value, error) { return value.Greater(l, r).Value(), nil }
	case ast.OpGe:
		bin = func(l, r value.Value) (value.Value, error) { return value.GreaterEq(l, r).Value(), nil }
	case ast.OpStartsWith:
		bin = func(l, r value.Value) (value.Value, error) { return value.StartsWith(l, r).Value(), nil }
	case ast.OpEndsWith:
		bin = func(l, r value.Value) (value.Value, error) { return value.EndsWith(l, r).Value(), nil }
	case ast.OpContains:
		bin = func(l, r value.Value) (value.Value, error) { return value.Contains(l, r).Value(), nil }
	case ast.OpIn:
		bin = func(l, r value.Value) (value.Value, error) { return value.In(l, r).Value(), nil }
	case ast.OpRegex:
		bin = evalRegex
	default:
		op := e.Op
		bin = func(l, r value.Value) (value.Value, error) {
			return value.Null, fmt.Errorf("unknown binary operator %v", op)
		}
	}
	fn := func(ctx *Ctx) (value.Value, error) {
		lv, err := l.fn(ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r.fn(ctx)
		if err != nil {
			return value.Null, err
		}
		return bin(lv, rv)
	}
	return c.tryFold(fn, allConst), nil
}

func (c *Compiler) compileUnary(e *ast.Unary) (comp, error) {
	x, err := c.compile(e.X)
	if err != nil {
		return comp{}, err
	}
	switch e.Op {
	case ast.OpNot:
		xp := predOf(x.fn)
		fn := func(ctx *Ctx) (value.Value, error) {
			t, err := xp(ctx)
			if err != nil {
				return value.Null, err
			}
			return t.Not().Value(), nil
		}
		return c.tryFold(fn, x.konst), nil
	case ast.OpNeg:
		fn := func(ctx *Ctx) (value.Value, error) {
			v, err := x.fn(ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Neg(v)
		}
		return c.tryFold(fn, x.konst), nil
	case ast.OpIsNull, ast.OpIsNotNull:
		not := e.Op == ast.OpIsNotNull
		fn := func(ctx *Ctx) (value.Value, error) {
			v, err := x.fn(ctx)
			if err != nil {
				return value.Null, err
			}
			isNull := v.IsNull()
			if not {
				return value.Bool(!isNull), nil
			}
			return value.Bool(isNull), nil
		}
		return c.tryFold(fn, x.konst), nil
	default:
		op := e.Op
		fn := func(ctx *Ctx) (value.Value, error) {
			if _, err := x.fn(ctx); err != nil {
				return value.Null, err
			}
			return value.Null, fmt.Errorf("unknown unary operator %v", op)
		}
		return comp{fn: fn}, nil
	}
}

func (c *Compiler) compileFuncCall(e *ast.FuncCall) (comp, error) {
	// Aggregates in scalar position fail at evaluation time, mirroring
	// evalFuncCall's first check. (Projection items route their aggregate
	// calls through Special before reaching here.)
	if functions.IsAggregate(e.Name) {
		return errComp(ErrAggregateInScalar), nil
	}
	f := functions.Lookup(e.Name)
	if f == nil {
		return errComp(fmt.Errorf("unknown function %s", e.Name)), nil
	}
	args := make([]Compiled, len(e.Args))
	allConst := true
	for i, a := range e.Args {
		cp, err := c.compile(a)
		if err != nil {
			return comp{}, err
		}
		args[i] = cp.fn
		allConst = allConst && cp.konst
	}
	fn := func(ctx *Ctx) (value.Value, error) {
		base := len(ctx.argScratch)
		for _, a := range args {
			v, err := a(ctx)
			if err != nil {
				ctx.argScratch = ctx.argScratch[:base]
				return value.Null, err
			}
			ctx.argScratch = append(ctx.argScratch, v)
		}
		ctx.gctx.G, ctx.gctx.Exec = ctx.Graph, ctx.Exec
		res, err := functions.Invoke(f, &ctx.gctx, ctx.argScratch[base:])
		ctx.argScratch = ctx.argScratch[:base]
		return res, err
	}
	// Nondeterministic functions (rand, timestamp) draw from the
	// per-execution state; folding one would change how many draws later
	// evaluations see and desynchronize the stream from the interpreter.
	return c.tryFold(fn, allConst && !f.Nondeterministic), nil
}

func (c *Compiler) compileCase(e *ast.CaseExpr) (comp, error) {
	var test Compiled
	if e.Test != nil {
		cp, err := c.compile(e.Test)
		if err != nil {
			return comp{}, err
		}
		test = cp.fn
	}
	whens := make([]Compiled, len(e.Whens))
	whenPreds := make([]CompiledPred, len(e.Whens))
	thens := make([]Compiled, len(e.Thens))
	for i, w := range e.Whens {
		cp, err := c.compile(w)
		if err != nil {
			return comp{}, err
		}
		if e.Test != nil {
			whens[i] = cp.fn
		} else {
			whenPreds[i] = predOf(cp.fn)
		}
		tp, err := c.compile(e.Thens[i])
		if err != nil {
			return comp{}, err
		}
		thens[i] = tp.fn
	}
	var els Compiled
	if e.Else != nil {
		cp, err := c.compile(e.Else)
		if err != nil {
			return comp{}, err
		}
		els = cp.fn
	}
	fn := func(ctx *Ctx) (value.Value, error) {
		if test != nil {
			t, err := test(ctx)
			if err != nil {
				return value.Null, err
			}
			for i, w := range whens {
				wv, err := w(ctx)
				if err != nil {
					return value.Null, err
				}
				if value.Equal(t, wv) == value.TriTrue {
					return thens[i](ctx)
				}
			}
		} else {
			for i, w := range whenPreds {
				t, err := w(ctx)
				if err != nil {
					return value.Null, err
				}
				if t == value.TriTrue {
					return thens[i](ctx)
				}
			}
		}
		if els != nil {
			return els(ctx)
		}
		return value.Null, nil
	}
	return comp{fn: fn}, nil
}

func (c *Compiler) compileComprehension(e *ast.ListComprehension) (comp, error) {
	list, err := c.compile(e.List)
	if err != nil {
		return comp{}, err
	}
	slot := c.Temp()
	c.locals = append(c.locals, localBinding{name: e.Var, slot: slot})
	var where CompiledPred
	if e.Where != nil {
		cp, err := c.compile(e.Where)
		if err != nil {
			c.locals = c.locals[:len(c.locals)-1]
			return comp{}, err
		}
		where = predOf(cp.fn)
	}
	var mapFn Compiled
	if e.Map != nil {
		cp, err := c.compile(e.Map)
		if err != nil {
			c.locals = c.locals[:len(c.locals)-1]
			return comp{}, err
		}
		mapFn = cp.fn
	}
	c.locals = c.locals[:len(c.locals)-1]
	fn := func(ctx *Ctx) (value.Value, error) {
		lv, err := list.fn(ctx)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		if lv.Kind() != value.KindList {
			return value.Null, fmt.Errorf("type error: list comprehension over %s", lv.Kind())
		}
		els := lv.AsList()
		out := make([]value.Value, 0, len(els))
		old := ctx.Frame[slot]
		for _, el := range els {
			ctx.Frame[slot] = el
			keep := value.TriTrue
			if where != nil {
				keep, err = where(ctx)
				if err != nil {
					ctx.Frame[slot] = old
					return value.Null, err
				}
			}
			if keep == value.TriTrue {
				mapped := el
				if mapFn != nil {
					mapped, err = mapFn(ctx)
					if err != nil {
						ctx.Frame[slot] = old
						return value.Null, err
					}
				}
				out = append(out, mapped)
			}
		}
		ctx.Frame[slot] = old
		return value.ListOf(out), nil
	}
	return comp{fn: fn}, nil
}

func (c *Compiler) compileQuantifier(e *ast.Quantifier) (comp, error) {
	list, err := c.compile(e.List)
	if err != nil {
		return comp{}, err
	}
	slot := c.Temp()
	c.locals = append(c.locals, localBinding{name: e.Var, slot: slot})
	pp, err := c.compile(e.Pred)
	c.locals = c.locals[:len(c.locals)-1]
	if err != nil {
		return comp{}, err
	}
	pred := predOf(pp.fn)
	kind := e.Kind
	fn := func(ctx *Ctx) (value.Value, error) {
		lv, err := list.fn(ctx)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		if lv.Kind() != value.KindList {
			return value.Null, fmt.Errorf("type error: %s() over %s", kind, lv.Kind())
		}
		trues, falses, unknowns := 0, 0, 0
		old := ctx.Frame[slot]
		for _, el := range lv.AsList() {
			ctx.Frame[slot] = el
			t, err := pred(ctx)
			if err != nil {
				ctx.Frame[slot] = old
				return value.Null, err
			}
			switch t {
			case value.TriTrue:
				trues++
			case value.TriFalse:
				falses++
			default:
				unknowns++
			}
		}
		ctx.Frame[slot] = old
		switch kind {
		case ast.QuantAll:
			switch {
			case falses > 0:
				return value.False, nil
			case unknowns > 0:
				return value.Null, nil
			default:
				return value.True, nil
			}
		case ast.QuantAny:
			switch {
			case trues > 0:
				return value.True, nil
			case unknowns > 0:
				return value.Null, nil
			default:
				return value.False, nil
			}
		case ast.QuantNone:
			switch {
			case trues > 0:
				return value.False, nil
			case unknowns > 0:
				return value.Null, nil
			default:
				return value.True, nil
			}
		default: // single
			switch {
			case trues > 1:
				return value.False, nil
			case unknowns > 0:
				return value.Null, nil
			case trues == 1:
				return value.True, nil
			default:
				return value.False, nil
			}
		}
	}
	return comp{fn: fn}, nil
}

// constExpr reports whether an expression is constant under exactly the
// rules the per-node konst flags implement: literals compose through
// operators, property access, indexing, slicing, collection literals,
// and deterministic non-aggregate function calls; variables, parameters,
// CASE, comprehensions, and quantifiers do not participate (the last
// three never fold today, and this predicate preserves that). The walk
// allocates nothing, which is the point: it lets compile fold a maximal
// constant subtree by one Eval of the AST instead of building a closure
// per node first.
func constExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Literal:
		return true
	case *ast.PropAccess:
		return constExpr(e.Subject)
	case *ast.Binary:
		return constExpr(e.L) && constExpr(e.R)
	case *ast.Unary:
		switch e.Op {
		case ast.OpNot, ast.OpNeg, ast.OpIsNull, ast.OpIsNotNull:
			return constExpr(e.X)
		}
		// An unknown unary operator never folds (compileUnary returns
		// its closure unfolded), so it is not constant here either.
		return false
	case *ast.FuncCall:
		if functions.IsAggregate(e.Name) {
			return false
		}
		f := functions.Lookup(e.Name)
		if f == nil || f.Nondeterministic {
			return false
		}
		for _, a := range e.Args {
			if !constExpr(a) {
				return false
			}
		}
		return true
	case *ast.ListLit:
		for _, el := range e.Elems {
			if !constExpr(el) {
				return false
			}
		}
		return true
	case *ast.MapLit:
		for _, v := range e.Vals {
			if !constExpr(v) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		return constExpr(e.Subject) && constExpr(e.Index)
	case *ast.SliceExpr:
		if !constExpr(e.Subject) {
			return false
		}
		if e.From != nil && !constExpr(e.From) {
			return false
		}
		if e.To != nil && !constExpr(e.To) {
			return false
		}
		return true
	}
	return false
}
