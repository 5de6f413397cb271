// Package decodebounds keeps every decoder on the one bounded cursor,
// internal/wire.Reader. The class it guards against is the allocation
// bomb: a tiny corrupt blob decoded a huge uvarint count and
// `make([]T, n)` amplified it into a multi-megabyte allocation before
// any bounds check ran. wire.Reader.Count is the one place a decoded
// count is checked against the bytes that remain, so the analyzer
// reports two things:
//
//   - a call to encoding/binary's Uvarint, Varint, ReadUvarint or
//     ReadVarint outside package wire: a decoder that reads varints
//     itself bypasses both the bound and the minimal-encoding rule;
//   - a `make` whose length or capacity mentions a (*wire.Reader).Uvarint
//     result, directly or through variables assigned from one, unless
//     the size clamps through the min builtin. Sizes come from Count,
//     whose result is never tainted; a constant cap is a compare after
//     Count, not a substitute for it.
//
// The taint tracking is intraprocedural and follows assignments in
// source order; a reassignment from a clean source clears it.
package decodebounds

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the decodebounds pass.
var Analyzer = &analysis.Analyzer{
	Name: "decodebounds",
	Doc: "flag raw encoding/binary varint reads outside internal/wire, and make() sized " +
		"from a wire.Reader Uvarint that did not pass through Count (the allocation-bomb class)",
	Run: run,
}

// rawVarintReads are the encoding/binary readers only package wire may
// call.
var rawVarintReads = map[string]bool{"Uvarint": true, "Varint": true, "ReadUvarint": true, "ReadVarint": true}

func run(pass *analysis.Pass) error {
	inWire := lintutil.PathTail(pass.Pkg.Path()) == "wire"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body, inWire)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, inWire bool) {
	info := pass.TypesInfo
	tainted := map[types.Object]bool{}
	assign := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if mentionsTaint(info, rhs, tainted) {
			tainted[obj] = true
		} else {
			delete(tainted, obj) // reassigned from a clean source
		}
	}
	// ast.Inspect visits statements in source order, and an assignment
	// before the calls on its right-hand side.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					assign(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					assign(n.Names[i], n.Values[i])
				}
			}
		case *ast.CallExpr:
			if fn := lintutil.CalleeFunc(info, n); fn != nil && !inWire && fn.Pkg() != nil &&
				fn.Pkg().Path() == "encoding/binary" && rawVarintReads[fn.Name()] {
				pass.Reportf(n.Pos(), "binary.%s outside internal/wire: read through wire.Reader, "+
					"which bounds lengths and rejects non-minimal varints", fn.Name())
			}
			if isBuiltin(info, n.Fun, "make") {
				for _, arg := range n.Args[1:] {
					if !clampedByMin(info, arg) && mentionsTaint(info, arg, tainted) {
						pass.Reportf(n.Pos(), "make sized from a decoded wire.Reader.Uvarint: "+
							"take the size from Count, which bounds it by the remaining input")
						break
					}
				}
			}
		}
		return true
	})
}

// mentionsTaint reports whether the expression calls (*wire.Reader).Uvarint
// or reads a variable assigned from such a call.
func mentionsTaint(info *types.Info, expr ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isReaderUvarint(info, n) {
				found = true
			}
		case *ast.Ident:
			if obj := info.ObjectOf(n); obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isReaderUvarint reports whether the call is the Uvarint method of a
// Reader declared in a package named wire.
func isReaderUvarint(info *types.Info, call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(info, call)
	return fn != nil && fn.Name() == "Uvarint" && fn.Pkg() != nil &&
		lintutil.PathTail(fn.Pkg().Path()) == "wire" && lintutil.ReceiverTypeName(fn) == "Reader"
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// clampedByMin reports whether the size expression clamps through the
// min builtin.
func clampedByMin(info *types.Info, arg ast.Expr) bool {
	clamped := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "min") {
			clamped = true
		}
		return !clamped
	})
	return clamped
}
