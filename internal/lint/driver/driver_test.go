package driver

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"code56/internal/lint"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chdir runs the rest of the test inside dir: `go list` resolves patterns
// against the process working directory's module.
func chdir(t *testing.T, dir string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	})
}

// xorViolation is a hand-rolled XOR loop the xorloop analyzer must flag.
const xorViolation = `package kern

func XorInPlace(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
`

func TestSortFindingsGlobalOrder(t *testing.T) {
	pos := func(file string, line, col int) token.Position {
		return token.Position{Filename: file, Line: line, Column: col}
	}
	fs := []finding{
		{pos: pos("b.go", 1, 1), analyzer: "xorloop", message: "m"},
		{pos: pos("a.go", 9, 1), analyzer: "xorloop", message: "m"},
		{pos: pos("a.go", 2, 5), analyzer: "noalloc", message: "m"},
		{pos: pos("a.go", 2, 5), analyzer: "lockcheck", message: "m"},
		{pos: pos("a.go", 2, 1), analyzer: "xorloop", message: "m"},
	}
	sortFindings(fs)
	var got []string
	for _, f := range fs {
		got = append(got, f.String())
	}
	want := []string{
		"a.go:2:1: m (xorloop)",
		"a.go:2:5: m (lockcheck)",
		"a.go:2:5: m (noalloc)",
		"a.go:9:1: m (xorloop)",
		"b.go:1:1: m (xorloop)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("global sort order:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestDedupFindings(t *testing.T) {
	p := token.Position{Filename: "a.go", Line: 3, Column: 7}
	fs := []finding{
		{pos: p, analyzer: "xorloop", message: "dup"},
		{pos: p, analyzer: "xorloop", message: "dup"},
		{pos: p, analyzer: "xorloop", message: "different message"},
		{pos: p, analyzer: "noalloc", message: "dup"},
	}
	sortFindings(fs)
	out := dedupFindings(fs)
	if len(out) != 3 {
		t.Fatalf("dedup kept %d findings, want 3: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Errorf("adjacent duplicate survived dedup: %v", out[i])
		}
	}
}

// Run over a throwaway module whose default-config file carries a violation
// and whose noasm replacement is clean: -tags must reach `go list`, so the
// finding appears for the first configuration and disappears for the second.
// The in-package test file carries the same violation under both and is never
// analyzed (see the package comment: GoFiles only).
func TestRunTagsSelectFiles(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module tagfixture\n\ngo 1.22\n")
	writeFile(t, dir, "kern_default.go", "//go:build !noasm\n\n"+xorViolation)
	writeFile(t, dir, "kern_noasm.go", `//go:build noasm

package kern

func XorInPlace(dst, src []byte) {
	copy(dst, src)
}
`)
	writeFile(t, dir, "kern_test.go", strings.Replace(xorViolation, "XorInPlace", "xorForTests", 1))
	chdir(t, dir)

	run := func(tags string) (int, string) {
		t.Helper()
		var buf bytes.Buffer
		n, err := Run(&buf, lint.Suite(), tags, []string{"./..."})
		if err != nil {
			t.Fatalf("Run -tags %q: %v\n%s", tags, err, buf.String())
		}
		return n, buf.String()
	}
	if n, out := run(""); n != 1 || !strings.Contains(out, "kern_default.go") || !strings.Contains(out, "(xorloop)") {
		t.Errorf("default config: n=%d out=%q, want the one xorloop finding in kern_default.go", n, out)
	}
	if n, out := run("noasm"); n != 0 {
		t.Errorf("noasm config: n=%d out=%q, want clean", n, out)
	}
}
