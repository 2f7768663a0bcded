package code56

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// facadeSurface is every exported function and variable of the root package,
// sorted. One entry point per operation and one constructor per object: a new
// name here is a second way of doing something until a review says otherwise.
var facadeSurface = []string{
	"ApplyOptions",
	"BuildCode",
	"Code56StorageEfficiency",
	"Downgrade",
	"Encode",
	"EncodeArrayStripes",
	"EraseColumns",
	"ErrDiskFailed",
	"ErrLatentSector",
	"ErrMigrationComplete",
	"ErrNoMigration",
	"ErrTransientIO",
	"IsPrime",
	"New",
	"NewEVENODD",
	"NewHCode",
	"NewHDP",
	"NewMigrator",
	"NewOriented",
	"NewPCode",
	"NewPCodeP",
	"NewPlan",
	"NewPlanExecutor",
	"NewRAID5Array",
	"NewRAID6Array",
	"NewRDP",
	"NewStripe",
	"NewVirtualPlan",
	"NewXCode",
	"NextPrime",
	"OpenRAID5Array",
	"OpenRAID6Array",
	"PlanColumnRecovery",
	"RebuildArray",
	"Reconstruct",
	"ResumeMigration",
	"RunPlan",
	"ScrubArray",
	"StandardConversions",
	"Verify",
	"WithBackend",
	"WithBlockSize",
	"WithCheckpointInterval",
	"WithFaults",
	"WithLayout",
	"WithRetry",
	"WithSeed",
	"WithThrottle",
	"WithWorkers",
}

// TestFacadeSurface parses the package's non-test files and pins the list
// above, so the next wrapper is a reviewed diff instead of an accretion.
func TestFacadeSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["code56"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, n := range spec.(*ast.ValueSpec).Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, facadeSurface) {
		for _, n := range got {
			if !slices.Contains(facadeSurface, n) {
				t.Errorf("exported %s is not in the pinned facade surface", n)
			}
		}
		for _, n := range facadeSurface {
			if !slices.Contains(got, n) {
				t.Errorf("pinned %s is no longer exported", n)
			}
		}
		if !t.Failed() {
			t.Error("facadeSurface is not sorted")
		}
	}
}
