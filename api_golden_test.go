package inplacehull

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPIGolden = flag.Bool("update", false, "rewrite testdata/api_golden.txt from the current source")

// TestExportedAPIGolden pins the package's exported surface against a
// committed golden file. The run redesign deliberately shrank the public
// API to the Run entry points; this test makes any future drift — an
// accidental export, a removed entry point, a changed signature — a
// reviewed diff instead of a silent change. Regenerate
// with `go test -run ExportedAPIGolden -update .`.
func TestExportedAPIGolden(t *testing.T) {
	got := strings.Join(exportedAPI(t), "\n") + "\n"
	const golden = "testdata/api_golden.txt"
	if *updateAPIGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exported API drifted from %s (run with -update after review):\n%s",
			golden, diffLines(string(want), got))
	}
}

// exportedAPI parses the root package's non-test files and renders one
// sorted line per exported declaration.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			lines = append(lines, renderDecl(fset, decl)...)
		}
	}
	sort.Strings(lines)
	return lines
}

func renderDecl(fset *token.FileSet, decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		recv := ""
		if d.Recv != nil && len(d.Recv.List) == 1 {
			rt := typeString(fset, d.Recv.List[0].Type)
			if !ast.IsExported(strings.TrimPrefix(rt, "*")) {
				return nil
			}
			recv = "(" + rt + ") "
		}
		sig := typeString(fset, d.Type) // "func(params) results"
		out = append(out, "func "+recv+d.Name.Name+strings.TrimPrefix(sig, "func"))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					kind := typeKind(s.Type)
					if s.Assign.IsValid() {
						kind = "= " + typeString(fset, s.Type)
					}
					out = append(out, fmt.Sprintf("type %s %s", s.Name.Name, kind))
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					kw := "var"
					if d.Tok == token.CONST {
						kw = "const"
					}
					line := kw + " " + name.Name
					if s.Type != nil {
						line += " " + typeString(fset, s.Type)
					}
					out = append(out, line)
				}
			}
		}
	}
	return out
}

func typeString(fset *token.FileSet, expr ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, expr); err != nil {
		return "<?>"
	}
	// Collapse any multi-line rendering to one canonical line.
	return strings.Join(strings.Fields(b.String()), " ")
}

func typeKind(expr ast.Expr) string {
	switch expr.(type) {
	case *ast.StructType:
		return "struct"
	case *ast.InterfaceType:
		return "interface"
	case *ast.FuncType:
		return "func"
	default:
		var b bytes.Buffer
		_ = printer.Fprint(&b, token.NewFileSet(), expr)
		return strings.Join(strings.Fields(b.String()), " ")
	}
}

// diffLines renders a minimal line diff (golden files are small).
func diffLines(want, got string) string {
	wantSet := map[string]bool{}
	for _, l := range strings.Split(want, "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if l != "" && !gotSet[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wantSet[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	if b.Len() == 0 {
		return "(ordering difference)"
	}
	return b.String()
}
