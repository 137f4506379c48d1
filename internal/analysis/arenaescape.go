package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// corePkg suffix-matches the codec package that defines Arena and the
// arena-backed decode kernels.
const corePkg = "internal/core"

// blockstorePkg suffix-matches the block-store package whose Store and
// Snapshot expose arena read paths.
const blockstorePkg = "internal/blockstore"

// relationPkg suffix-matches the package defining Tuple, the type the
// arena slabs back.
const relationPkg = "internal/relation"

// AnalyzerArenaEscape flags slab-backed tuples that escape to the heap.
// The arena decode kernels (core.DecodeBlockArena and friends,
// Arena.Tuple/Tuples, Store.ReadBlockArena) return
// relation.Tuple values whose digits alias the arena's slab; the slab is
// recycled on the next Arena.Reset, so the tuples are only valid for
// transient use. Storing one into a struct field or sending it on a
// channel without an explicit Clone() silently retains memory a later
// decode will overwrite. The executor's φ-slab reads
// (core.DecodeBlockPhis, Arena.Phis, Snapshot.ReadPhis) carve raw
// []uint64 limb slabs from the same arenas and are tracked the same way,
// with copy-out instead of Clone as the fix.
//
// It supersedes the old arenaalias rule with a type-aware, flow-sensitive
// taint analysis over the CFG: only variables whose static type is
// relation.Tuple or []relation.Tuple are tracked, taint propagates
// through aliases (indexing, slicing, range, append) and merges at joins,
// a reassignment from a non-arena source clears it, and Clone() (or any
// other method call) launders it. Returning a slab-backed tuple is NOT
// flagged: the caller passed the arena in and inherits the taint with it.
var AnalyzerArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "a slab-backed tuple from an arena decode must be Clone()d before escaping to the heap",
	Run:  runArenaEscape,
}

func runArenaEscape(pass *Pass) {
	// The arena and codec internals manage slab lifetimes themselves.
	if strings.HasSuffix(pass.Pkg.Path, corePkg) {
		return
	}
	forEachFunc(pass.Pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		analyzeArenaFunc(pass, fd)
	})
}

// maxTaintVars bounds the per-function taint universe; a function bigger
// than this is skipped rather than analyzed slowly.
const maxTaintVars = 512

// taintFacts maps each tracked variable (by index) to the display name of
// the arena call it is tainted by; "" means clean.
type taintFacts []string

func analyzeArenaFunc(pass *Pass, fd *ast.FuncDecl) {
	// The universe: every tuple-typed variable written anywhere in the
	// body (assignments, declarations, range variables). Anything else
	// can never carry taint.
	var vars []types.Object
	index := make(map[types.Object]int)
	addVar := func(e ast.Expr) {
		obj := identObj(pass.Pkg, e)
		if obj == nil || !isTupleType(obj.Type()) {
			return
		}
		if _, ok := index[obj]; !ok && len(vars) < maxTaintVars {
			index[obj] = len(vars)
			vars = append(vars, obj)
		}
	}
	hasArenaCall := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				addVar(lhs)
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				addVar(n.Key)
			}
			if n.Value != nil {
				addVar(n.Value)
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				addVar(name)
			}
		case *ast.CallExpr:
			if _, ok := arenaYieldingCall(pass.Pkg, n); ok {
				hasArenaCall = true
			}
		}
		return true
	})
	if !hasArenaCall || len(vars) == 0 {
		return
	}

	g := BuildCFG(fd.Body)
	flow := FlowSpec[taintFacts]{
		Bottom: func() taintFacts { return make(taintFacts, len(vars)) },
		Clone: func(f taintFacts) taintFacts {
			c := make(taintFacts, len(f))
			copy(c, f)
			return c
		},
		Merge: func(dst, src taintFacts) taintFacts {
			for i := range dst {
				if dst[i] == "" {
					dst[i] = src[i]
				}
			}
			return dst
		},
		Equal: func(a, b taintFacts) bool {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		},
		Transfer: func(b *CFGBlock, f taintFacts) taintFacts {
			for _, n := range b.Nodes {
				transferTaintNode(pass, index, n, f, nil)
			}
			return f
		},
	}
	res := RunFlow(g, flow)

	// Reporting pass: replay each block from its fixpoint in-fact, now
	// with the report hook armed.
	for _, b := range g.Blocks {
		f := flow.Clone(res.In[b])
		for _, n := range b.Nodes {
			transferTaintNode(pass, index, n, f, func(e ast.Expr, varName, src, how string) {
				noun, fix := "slab-backed tuple", "Clone() it first"
				if phiSource(src) {
					noun, fix = "arena-backed φ slab", "copy the ordinals out first"
				}
				pass.Report(e.Pos(),
					"%s %q (from %s) %s; arena memory is recycled on Reset — %s",
					noun, varName, src, how, fix)
			})
		}
	}
}

// transferTaintNode interprets one atomic node: propagates taint through
// assignments and range bindings, clears it on clean reassignment, and —
// when report is armed — flags tainted values escaping into fields or
// channels.
func transferTaintNode(pass *Pass, index map[types.Object]int, n ast.Node, f taintFacts, report func(e ast.Expr, varName, src, how string)) {
	inspectShallow(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			transferTaintAssign(pass, index, nd, f, report)
		case *ast.ValueSpec:
			for i, name := range nd.Names {
				var src string
				if i < len(nd.Values) {
					_, src = taintRef(pass, nd.Values[i], index, f)
				}
				setTaint(pass, index, name, src, f)
			}
		case *ast.SendStmt:
			if report != nil {
				if varName, src := taintRef(pass, nd.Value, index, f); src != "" {
					report(nd.Value, varName, src, "sent on a channel")
				}
			}
		}
		return true
	})
	// Range heads bind the iteration variables to elements of X.
	if r, ok := n.(*ast.RangeStmt); ok {
		_, src := taintRef(pass, r.X, index, f)
		if r.Value != nil {
			setTaint(pass, index, r.Value, src, f)
		} else if r.Key != nil {
			// Ranging over a tuple: the element values come through Key
			// only for maps, which never hold slab tuples here; still
			// propagate conservatively.
			setTaint(pass, index, r.Key, src, f)
		}
	}
}

// transferTaintAssign handles one assignment: strong-updates every tracked
// LHS from its RHS's taint, and reports tainted stores into fields.
func transferTaintAssign(pass *Pass, index map[types.Object]int, n *ast.AssignStmt, f taintFacts, report func(e ast.Expr, varName, src, how string)) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		switch {
		case len(n.Rhs) == len(n.Lhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0]
		default:
			continue
		}
		varName, src := taintRefMulti(pass, rhs, index, f, i, len(n.Lhs) > 1 && len(n.Rhs) == 1)
		if report != nil && src != "" && isFieldStore(lhs) {
			report(rhs, varName, src, "stored into a field")
		}
		setTaint(pass, index, lhs, src, f)
	}
}

// taintRefMulti is taintRef aware of multi-value assignments: for
// `ts, err := DecodeBlockArena(...)` only result 0 carries the slab.
func taintRefMulti(pass *Pass, e ast.Expr, index map[types.Object]int, f taintFacts, resultPos int, isMulti bool) (string, string) {
	if isMulti && resultPos > 0 {
		return "", ""
	}
	return taintRef(pass, e, index, f)
}

// setTaint strong-updates a tracked LHS identifier; non-identifier and
// untracked targets are ignored.
func setTaint(pass *Pass, index map[types.Object]int, lhs ast.Expr, src string, f taintFacts) {
	obj := identObj(pass.Pkg, unparen(lhs))
	if obj == nil {
		return
	}
	if i, ok := index[obj]; ok {
		f[i] = src
	}
}

// taintRef resolves e to the tainted variable it exposes (if any),
// returning the variable's name and the taint source. It looks through
// parentheses, indexing, slicing, address-of, composite literals, and
// append; a fresh arena-yielding call is itself a source; any other call
// (Clone and friends) launders.
func taintRef(pass *Pass, e ast.Expr, index map[types.Object]int, f taintFacts) (varName, src string) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(pass.Pkg, e)
		if obj == nil {
			return "", ""
		}
		if i, ok := index[obj]; ok && f[i] != "" {
			return obj.Name(), f[i]
		}
	case *ast.IndexExpr:
		return taintRef(pass, e.X, index, f)
	case *ast.SliceExpr:
		return taintRef(pass, e.X, index, f)
	case *ast.UnaryExpr:
		return taintRef(pass, e.X, index, f)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if n, s := taintRef(pass, el, index, f); s != "" {
				return n, s
			}
		}
	case *ast.CallExpr:
		if name, ok := arenaYieldingCall(pass.Pkg, e); ok {
			return "", name
		}
		// Only the append builtin propagates its arguments' backing
		// memory; method calls (Clone and friends) return fresh values.
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range e.Args {
				if n, s := taintRef(pass, arg, index, f); s != "" {
					return n, s
				}
			}
		}
	}
	return "", ""
}

// isTupleType reports whether t can carry slab-backed memory:
// relation.Tuple, a slice of it, or a raw []uint64 φ-ordinal slab.
// Tracking every []uint64 variable is safe — taint only originates from
// the arena-yielding calls, so clean ordinal slices never get flagged.
func isTupleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if namedFrom(t, relationPkg, "Tuple") {
		return true
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		if namedFrom(s.Elem(), relationPkg, "Tuple") {
			return true
		}
		if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Uint64 {
			return true
		}
	}
	return false
}

// phiSource reports whether the arena source yields a raw φ-ordinal slab
// ([]uint64) rather than tuples, which changes the suggested fix.
func phiSource(src string) bool {
	switch src {
	case "Arena.Phis", "ReadPhis", "DecodeBlockPhis":
		return true
	}
	return false
}

// arenaYieldingCall reports whether the call returns tuples backed by an
// arena slab, and the callee's display name.
func arenaYieldingCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	if recv, name, ok := methodCall(pkg, call); ok {
		t := pkg.Info.TypeOf(recv)
		switch name {
		case "Tuple", "Tuples", "Phis":
			if namedFrom(t, corePkg, "Arena") {
				return "Arena." + name, true
			}
		case "ReadBlockArena":
			if namedFrom(t, blockstorePkg, "Store") {
				return name, true
			}
		case "ReadPhis":
			if namedFrom(t, blockstorePkg, "Snapshot") {
				return name, true
			}
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "DecodeBlockArena", "DecodeBlockPhis":
	default:
		return "", false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	p := obj.Pkg().Path()
	if p == corePkg || strings.HasSuffix(p, "/"+corePkg) {
		return sel.Sel.Name, true
	}
	return "", false
}

// isFieldStore reports whether the assignment target is a struct field
// (s.f) or an element of one (s.f[i]): the shapes that retain the stored
// value past the enclosing call.
func isFieldStore(lhs ast.Expr) bool {
	switch e := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		_, ok := unparen(e.X).(*ast.SelectorExpr)
		return ok
	}
	return false
}
