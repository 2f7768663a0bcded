package driver

import (
	"bytes"
	"strings"
	"testing"

	"code56/internal/lint"
)

// AuditAllows over a throwaway module containing one live suppression
// (the xorloop hit still fires on its line) and one stale suppression
// (nothing fires there): the audit must list both, flag exactly the
// stale one, and count it in the return value.
func TestAuditAllowsFlagsStaleDirectives(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module auditfixture\n\ngo 1.22\n")
	writeFile(t, dir, "kern.go", `package kern

// xorInPlace carries a live suppression: the flagged XOR loop is still
// on the directive's line.
func xorInPlace(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i] //lint:allow xorloop audit fixture: loop kept on purpose
	}
}

// identity carries a stale suppression: no noalloc diagnostic fires on a
// plain return statement.
func identity(n int) int {
	return n //lint:allow noalloc audit fixture: nothing to silence here
}
`)
	chdir(t, dir)

	var buf bytes.Buffer
	stale, err := AuditAllows(&buf, lint.Suite(), "", []string{"./..."})
	if err != nil {
		t.Fatalf("AuditAllows: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if stale != 1 {
		t.Fatalf("stale count = %d, want 1\n%s", stale, out)
	}
	var used, staleLines int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		switch {
		case strings.HasPrefix(line, "used"):
			used++
			if !strings.Contains(line, "//lint:allow xorloop") {
				t.Errorf("used line is not the xorloop directive: %q", line)
			}
		case strings.HasPrefix(line, "STALE"):
			staleLines++
			if !strings.Contains(line, "//lint:allow noalloc") {
				t.Errorf("stale line is not the noalloc directive: %q", line)
			}
		}
	}
	if used != 1 || staleLines != 1 {
		t.Errorf("audit listed %d used and %d stale directives, want 1 and 1:\n%s",
			used, staleLines, out)
	}
	if !strings.Contains(out, "2 //lint:allow directive(s), 1 stale") {
		t.Errorf("missing summary line:\n%s", out)
	}
}
