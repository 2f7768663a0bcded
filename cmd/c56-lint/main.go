// c56-lint runs the repository's invariant analyzers (internal/lint) over
// Go packages:
//
//	c56-lint ./...                  # whole module
//	c56-lint -tags purego ./...     # portable build config
//	c56-lint -audit-allows ./...    # audit //lint:allow directives
//	c56-lint help                   # describe the analyzers
//
// The five analyzers enforce conventions that correctness and
// performance work in this repository depend on: XOR through the xorblk
// kernels (xorloop), no manufactured contexts in library code (ctxflow),
// constant pkg.snake_case telemetry names (metricname), mutex-guarded field
// access per //c56:guardedby annotations (lockcheck), and statically
// allocation-free //c56:noalloc functions (noalloc). Exit status: 0 clean,
// 1 findings or stale allows, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"

	"code56/internal/lint"
	"code56/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("c56-lint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: c56-lint [-tags list] packages...\n")
		fs.PrintDefaults()
	}
	tags := fs.String("tags", "", "comma-separated build tags for package loading")
	auditAllows := fs.Bool("audit-allows", false, "list every //lint:allow directive; exit 1 if any is stale (its analyzer no longer fires on that line)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}
	if rest[0] == "help" {
		for _, a := range lint.Suite() {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return 0
	}

	if *auditAllows {
		stale, err := driver.AuditAllows(os.Stdout, lint.Suite(), *tags, rest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c56-lint:", err)
			return 2
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "c56-lint: %d stale //lint:allow directive(s)\n", stale)
			return 1
		}
		return 0
	}

	n, err := driver.Run(os.Stdout, lint.Suite(), *tags, rest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c56-lint:", err)
		return 2
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "c56-lint: %d finding(s)\n", n)
		return 1
	}
	return 0
}
