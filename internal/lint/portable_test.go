package lint

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPortableBuilds holds the repository's portability story to the go
// command's own reading of the build constraints: under -tags purego no
// package outside the standard library imports unsafe or compiles an
// assembly file, under -tags noasm none compiles an assembly file, and in
// every configuration internal/xorblk is the only one that does either. It
// asks `go list` what each configuration compiles, for the two
// architectures with assembly kernels and one without (listing compiles
// nothing, so a foreign GOARCH costs the same), instead of re-parsing
// //go:build lines against a table of file names.
//
// A body-less function needs an assembly file beside it (or go:linkname,
// which needs unsafe) to compile at all, and reflect.SliceHeader is inert
// without unsafe.Pointer, so these two facts cover assembly stubs and
// "unsafe in disguise" as well.
func TestPortableBuilds(t *testing.T) {
	const xorblk = "code56/internal/xorblk"
	for _, arch := range []string{"amd64", "arm64", "riscv64"} {
		for _, tags := range []string{"", "purego", "noasm"} {
			cmd := exec.Command("go", "list", "-deps", "-tags", tags, "-f",
				`{{if not .Standard}}{{.ImportPath}}{{range .Imports}}{{if eq . "unsafe"}} unsafe{{end}}{{end}}{{if .SFiles}} asm{{end}}{{end}}`,
				"code56/...")
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go list (GOARCH=%s, -tags %q): %v", arch, tags, err)
			}
			var got []string
			for _, line := range strings.Split(string(out), "\n") {
				if strings.Contains(line, " ") {
					got = append(got, line)
				}
			}
			var want []string
			switch {
			case tags == "purego":
			case tags == "noasm" || arch == "riscv64":
				want = []string{xorblk + " unsafe"}
			default:
				want = []string{xorblk + " unsafe asm"}
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("GOARCH=%s -tags %q: packages importing unsafe or compiling assembly:\n  got  %q\n  want %q", arch, tags, got, want)
			}
		}
	}
}
