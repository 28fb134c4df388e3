package actyp

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sizeLedger is the structural size of the module, as SIZE.json records
// it. Every count but Lines is gated: TestSizeBudget fails when one moves
// in either direction, so a change that grows or shrinks the surface says
// so by updating SIZE.json (and CHANGES.md says why).
type sizeLedger struct {
	ActypdFlags       int                    `json:"actypd_flags"`        // flags cmd/actypd defines
	CoreOptionsFields int                    `json:"core_options_fields"` // fields of core.Options
	TestSleeps        int                    `json:"test_sleeps"`         // time.Sleep uses in _test.go files
	FuzzTargets       int                    `json:"fuzz_targets"`        // func Fuzz* in _test.go files
	CmdLogPrintf      int                    `json:"cmd_log_printf"`      // log.Printf uses under cmd/
	Packages          map[string]packageSize `json:"packages"`            // by directory, "." the root
}

// packageSize is one package's exported surface, counted in its non-test
// files, and its non-test line count (recorded, not gated).
type packageSize struct {
	Exported int `json:"exported"` // exported top-level names
	Methods  int `json:"methods"`  // exported methods
	Lines    int `json:"lines"`
}

// flagDefiners are the flag package functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// measureSize walks the module under root (bench/, a module of its own, and
// dot directories excluded) and counts what sizeLedger records.
func measureSize(root string) (sizeLedger, error) {
	led := sizeLedger{Packages: map[string]packageSize{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		isTest := strings.HasSuffix(path, "_test.go")
		underCmd := dir == "cmd" || strings.HasPrefix(dir, "cmd/")
		// A use is a call or the function passed as a value: a
		// Logf: log.Printf option is a log.Printf call site too.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch use := pkg.Name + "." + sel.Sel.Name; {
			case isTest && use == "time.Sleep":
				led.TestSleeps++
			case underCmd && use == "log.Printf":
				led.CmdLogPrintf++
			case !isTest && dir == "cmd/actypd" && pkg.Name == "flag" && flagDefiners[sel.Sel.Name]:
				led.ActypdFlags++
			}
			return true
		})
		if isTest {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
					led.FuzzTargets++
				}
			}
			return nil
		}
		pkg := led.Packages[dir]
		pkg.Lines += bytes.Count(src, []byte("\n"))
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv != nil {
					pkg.Methods++
				} else {
					pkg.Exported++
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							pkg.Exported++
						}
						if st, ok := spec.Type.(*ast.StructType); ok && dir == "internal/core" && spec.Name.Name == "Options" {
							for _, field := range st.Fields.List {
								led.CoreOptionsFields += max(1, len(field.Names))
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								pkg.Exported++
							}
						}
					}
				}
			}
		}
		led.Packages[dir] = pkg
		return nil
	})
	return led, err
}

// TestSizeBudget pins the module's structural size to SIZE.json. A change
// that moves a gated count on purpose regenerates the file from the JSON
// this test logs on failure.
func TestSizeBudget(t *testing.T) {
	raw, err := os.ReadFile("SIZE.json")
	if err != nil {
		t.Fatal(err)
	}
	var want sizeLedger
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("SIZE.json: %v", err)
	}
	got, err := measureSize(".")
	if err != nil {
		t.Fatal(err)
	}

	check := func(what string, got, want int) {
		if got != want {
			t.Errorf("%s = %d, SIZE.json records %d", what, got, want)
		}
	}
	check("actypd flags", got.ActypdFlags, want.ActypdFlags)
	check("core.Options fields", got.CoreOptionsFields, want.CoreOptionsFields)
	check("time.Sleep uses in tests", got.TestSleeps, want.TestSleeps)
	check("fuzz targets", got.FuzzTargets, want.FuzzTargets)
	check("log.Printf uses under cmd/", got.CmdLogPrintf, want.CmdLogPrintf)
	for dir := range want.Packages {
		if _, ok := got.Packages[dir]; !ok {
			t.Errorf("package %s is recorded in SIZE.json but has no non-test files", dir)
		}
	}
	for dir, g := range got.Packages {
		w, ok := want.Packages[dir]
		if !ok {
			t.Errorf("package %s is missing from SIZE.json", dir)
			continue
		}
		check(dir+" exported names", g.Exported, w.Exported)
		check(dir+" exported methods", g.Methods, w.Methods)
		if g.Lines != w.Lines {
			t.Logf("%s: %d non-test lines, SIZE.json records %d (not gated)", dir, g.Lines, w.Lines)
		}
	}

	if t.Failed() || !reflect.DeepEqual(got, want) {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("current SIZE.json:\n%s", out)
	}
}
