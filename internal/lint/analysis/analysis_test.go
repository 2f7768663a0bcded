package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	ok := &Analyzer{Name: "a", Doc: "doc", Run: func(*Pass) error { return nil }}
	if err := Validate([]*Analyzer{ok}); err != nil {
		t.Fatalf("valid analyzer rejected: %v", err)
	}
	bads := []struct {
		name string
		as   []*Analyzer
	}{
		{"nil analyzer", []*Analyzer{nil}},
		{"empty name", []*Analyzer{{Doc: "d", Run: ok.Run}}},
		{"no run", []*Analyzer{{Name: "x", Doc: "d"}}},
		{"no doc", []*Analyzer{{Name: "x", Run: ok.Run}}},
		{"duplicate", []*Analyzer{ok, {Name: "a", Doc: "d", Run: ok.Run}}},
	}
	for _, tc := range bads {
		if err := Validate(tc.as); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSuppressions(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow xorloop benchmark baseline
	_ = 2 //lint:allow lockcheck
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allowed, bad := Suppressions(fset, []*ast.File{f})
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed suppression") {
		t.Fatalf("want one malformed-suppression diagnostic, got %v", bad)
	}
	if len(allowed) != 1 {
		t.Fatalf("want one suppression, got %d", len(allowed))
	}

	// A diagnostic on the suppressed line for the named analyzer is
	// filtered; other analyzers and other lines are not.
	file := fset.File(f.Pos())
	pos4, pos6 := file.LineStart(4), file.LineStart(6)
	if !Suppressed(fset, allowed, "xorloop", Diagnostic{Pos: pos4, Message: "m"}) {
		t.Error("xorloop diagnostic on the allow line not suppressed")
	}
	if Suppressed(fset, allowed, "ctxflow", Diagnostic{Pos: pos4, Message: "m"}) {
		t.Error("other analyzer suppressed by a xorloop directive")
	}
	if Suppressed(fset, allowed, "xorloop", Diagnostic{Pos: pos6, Message: "m"}) {
		t.Error("unrelated line suppressed")
	}
}
