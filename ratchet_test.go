package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// shape is what the ratchet counts in one package's non-test files.
type shape struct {
	goStmts  int // go statements
	chans    int // chan types, wherever one is written
	selects  int // select statements
	panics   int // calls of the builtin panic
	exported int // exported package-level names, fields and interface methods
	lines    int // lines
}

// packageCeilings is the ratchet: the committed shape of every package of
// the root module (benchmarks/, its own module, excluded). A count above its
// ceiling fails TestCodeShapeRatchet, and so does a count below it, until
// the ceiling is lowered: raising or lowering a ceiling is a reviewed line
// of the change that moved it. Columns: go statements, chan types, select
// statements, panic calls, exported names, lines.
var packageCeilings = map[string]shape{
	".":                    {0, 0, 0, 0, 24, 400},
	"cmd/optcli":           {0, 0, 0, 0, 0, 212},
	"cmd/reprobench":       {0, 0, 0, 0, 0, 109},
	"cmd/reproserve":       {4, 2, 1, 0, 2, 293},
	"examples/andorgraph":  {0, 0, 0, 0, 0, 33},
	"examples/prepared":    {0, 0, 0, 0, 0, 78},
	"examples/quickstart":  {0, 0, 0, 0, 0, 47},
	"examples/server":      {1, 0, 0, 0, 0, 101},
	"examples/streamadapt": {0, 0, 0, 0, 0, 49},
	"examples/viewmaint":   {0, 0, 0, 0, 0, 55},
	"internal/aqp":         {0, 0, 0, 0, 33, 396},
	"internal/bench":       {0, 0, 0, 16, 27, 822},
	"internal/catalog":     {0, 0, 0, 5, 45, 464},
	"internal/core":        {0, 0, 0, 2, 65, 1956},
	"internal/cost":        {0, 0, 0, 3, 28, 420},
	"internal/deltalog":    {0, 0, 0, 5, 24, 411},
	"internal/exec":        {0, 0, 0, 0, 101, 4522},
	"internal/fbstore":     {0, 0, 0, 0, 39, 537},
	"internal/linearroad":  {0, 0, 0, 1, 21, 322},
	"internal/obs":         {0, 0, 0, 0, 68, 553},
	"internal/relalg":      {0, 0, 0, 1, 136, 1118},
	"internal/rescache":    {0, 0, 0, 0, 20, 219},
	"internal/server":      {1, 2, 1, 0, 104, 1748},
	"internal/sqlmini":     {0, 0, 0, 0, 4, 598},
	"internal/stats":       {0, 0, 0, 2, 21, 257},
	"internal/storage":     {0, 0, 0, 0, 48, 964},
	"internal/systemr":     {0, 0, 0, 0, 10, 164},
	"internal/testkit":     {0, 0, 0, 2, 10, 349},
	"internal/tpch":        {0, 0, 0, 2, 36, 491},
	"internal/volcano":     {0, 0, 0, 0, 11, 154},
}

// shapeCeilings pins an interface the system map names.
var shapeCeilings = map[string]int{
	"server.Options fields": 14,
}

// TestCodeShapeRatchet counts, with go/parser and go/ast alone, each
// package's go statements, chan types, select statements, panic calls,
// exported names and lines, plus the fields of server.Options, and holds
// every count to its ceiling exactly.
func TestCodeShapeRatchet(t *testing.T) {
	got := map[string]shape{}
	fset := token.NewFileSet()
	options := -1
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmarks" || path == "testdata" ||
				strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		s := got[pkg]
		s.lines += bytes.Count(src, []byte("\n"))
		countShape(f, &s)
		got[pkg] = s
		if pkg == "internal/server" {
			if n := typeMembers(f, "Options"); n >= 0 {
				options = n
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(what string, n, ceiling int) {
		switch {
		case n > ceiling:
			t.Errorf("%s: %d, above its ceiling %d", what, n, ceiling)
		case n < ceiling:
			t.Errorf("%s: %d, below its ceiling %d: lower the ceiling to %d", what, n, ceiling, n)
		}
	}
	for _, pkg := range slices.Sorted(maps.Keys(got)) {
		c, ok := packageCeilings[pkg]
		if !ok {
			t.Errorf("package %s has no row in packageCeilings", pkg)
			continue
		}
		g := got[pkg]
		check(pkg+" go statements", g.goStmts, c.goStmts)
		check(pkg+" chan types", g.chans, c.chans)
		check(pkg+" select statements", g.selects, c.selects)
		check(pkg+" panic calls", g.panics, c.panics)
		check(pkg+" exported names", g.exported, c.exported)
		check(pkg+" lines", g.lines, c.lines)
	}
	for _, pkg := range slices.Sorted(maps.Keys(packageCeilings)) {
		if _, ok := got[pkg]; !ok {
			t.Errorf("packageCeilings has a row for %s, which has no non-test Go file", pkg)
		}
	}
	check("server.Options fields", options, shapeCeilings["server.Options fields"])

	if t.Failed() {
		var b strings.Builder
		for _, pkg := range slices.Sorted(maps.Keys(got)) {
			g := got[pkg]
			fmt.Fprintf(&b, "\t%q: {%d, %d, %d, %d, %d, %d},\n", pkg, g.goStmts, g.chans, g.selects, g.panics, g.exported, g.lines)
		}
		t.Logf("the counts now, as packageCeilings rows:\n%s", b.String())
	}
}

// countShape adds one file's statements, types, calls and exported names to s.
func countShape(f *ast.File, s *shape) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.goStmts++
		case *ast.ChanType:
			s.chans++
		case *ast.SelectStmt:
			s.selects++
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				s.panics++
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				s.exported++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						s.exported++
					}
					ast.Inspect(sp.Type, func(n ast.Node) bool {
						var fields *ast.FieldList
						switch t := n.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						default:
							return true
						}
						for _, field := range fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									s.exported++
								}
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() {
							s.exported++
						}
					}
				}
			}
		}
	}
}

// typeMembers returns the number of fields of the struct type, or of
// methods of the interface type, that f declares under name; -1 when f does
// not declare it.
func typeMembers(f *ast.File, name string) int {
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range d.Specs {
			sp, ok := spec.(*ast.TypeSpec)
			if !ok || sp.Name.Name != name {
				continue
			}
			var list *ast.FieldList
			switch t := sp.Type.(type) {
			case *ast.StructType:
				list = t.Fields
			case *ast.InterfaceType:
				list = t.Methods
			default:
				return -1
			}
			n := 0
			for _, field := range list.List {
				n += max(len(field.Names), 1) // an embedded field or interface is one
			}
			return n
		}
	}
	return -1
}
