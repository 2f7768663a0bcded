package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"code56/internal/lint/analysis"
)

// XorLoop flags hand-rolled XOR loops over byte blocks outside
// internal/xorblk.
//
// Two shapes are recognized inside any for/range loop:
//
//   - the byte path: dst[i] ^= src[i], or dst[i] = a[i] ^ b[i], where the
//     indexed operands are byte slices/arrays;
//   - the word path: a binary.*.PutUintN call whose value argument contains
//     an XOR (the encoding/binary idiom xorblk's own word kernels use).
//
// Everything the paper counts — the optimal XOR tallies reproduced by the
// analysis package and the raid engines' telemetry — and everything PR 4's
// zero-allocation work guarantees flows through xorblk's kernels. A
// hand-rolled loop elsewhere is invisible to both: it escapes the XOR
// accounting and silently takes the slow byte path the kernels exist to
// avoid. Bitset algebra over non-byte slices (layout's Gaussian
// elimination over []uint64) is deliberately out of scope.
//
// xorblk's own reference tiers (the byte and word loops the dispatched
// kernels are compared against) are unexported, so no caller outside the
// package can pin a block operation to one; benchmarks enumerate
// xorblk.Tiers(), which lists both.
var XorLoop = &analysis.Analyzer{
	Name: "xorloop",
	Doc: "flag hand-rolled byte/word XOR loops outside internal/xorblk; block " +
		"XOR must go through the dispatched xorblk kernels (Xor, XorInto, XorMulti)",
	Run: runXorLoop,
}

func runXorLoop(pass *analysis.Pass) error {
	if pass.Pkg.Path() == xorblkPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				switch stmt := m.(type) {
				case *ast.AssignStmt:
					if d := xorAssign(pass, stmt); d != nil {
						pass.Report(*d)
					}
				case *ast.CallExpr:
					if d := xorPutCall(pass, stmt); d != nil {
						pass.Report(*d)
					}
				}
				return true
			})
			return true
		})
	}
	return nil
}

// xorAssign matches the byte-path shapes dst[i] ^= src[i] and
// dst[i] = a[i] ^ b[i] over byte slices.
func xorAssign(pass *analysis.Pass, stmt *ast.AssignStmt) *analysis.Diagnostic {
	if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return nil
	}
	if !isByteSliceIndex(pass.TypesInfo, stmt.Lhs[0]) {
		return nil
	}
	rhs := stmt.Rhs[0]
	switch stmt.Tok {
	case token.XOR_ASSIGN: // dst[i] ^= <expr reading another block>
		if !containsByteSliceIndex(pass, rhs) {
			return nil
		}
	case token.ASSIGN: // dst[i] = a[i] ^ b[i]
		bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
		if !ok || bin.Op != token.XOR {
			return nil
		}
		if !containsByteSliceIndex(pass, bin.X) || !containsByteSliceIndex(pass, bin.Y) {
			return nil
		}
	default:
		return nil
	}
	return &analysis.Diagnostic{
		Pos: stmt.Pos(),
		Message: "hand-rolled byte XOR loop; use code56/internal/xorblk " +
			"(Xor/XorInto/XorMulti) so XOR counts and the wide kernels stay in effect",
	}
}

// containsByteSliceIndex reports whether e contains an index into a byte
// slice/array anywhere in its subtree.
func containsByteSliceIndex(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isByteSliceIndex(pass.TypesInfo, ex) {
			found = true
		}
		return !found
	})
	return found
}

// xorPutCall matches the word-path shape: binary.LittleEndian.PutUint64
// (or any ByteOrder PutUintN) fed an expression containing an XOR.
func xorPutCall(pass *analysis.Pass, call *ast.CallExpr) *analysis.Diagnostic {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "PutUint") {
		return nil
	}
	fn := calleeObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return nil
	}
	for _, arg := range call.Args {
		if containsXor(arg) {
			return &analysis.Diagnostic{
				Pos: call.Pos(),
				Message: "hand-rolled word XOR loop (encoding/binary PutUint of an XOR); " +
					"use code56/internal/xorblk kernels instead",
			}
		}
	}
	return nil
}

// containsXor reports whether e contains a ^ binary operation.
func containsXor(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if bin, ok := n.(*ast.BinaryExpr); ok && bin.Op == token.XOR {
			found = true
		}
		return !found
	})
	return found
}
