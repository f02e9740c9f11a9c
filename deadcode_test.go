package inplacehull

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeKeep names the package-level exported functions in internal/
// that no non-test file calls and that stay on purpose: test oracles,
// a test knob, the Lemma 2.1 interface and the 3-d twin of Bridge2D
// (DESIGN §3 says why each stays).
var deadcodeKeep = []string{
	"internal/compact.ApproxCompact",
	"internal/hull2d.IsUpperHull",
	"internal/hull3d.SameUpper",
	"internal/hull3d.VerifyUpper",
	"internal/lp.Bridge3D",
	"internal/lp.BruteForce3D",
	"internal/pram.WithParallelThreshold",
}

// TestNoUncalledInternalFuncs fails for every package-level exported
// function in internal/ that no non-test file in the repository,
// servebench/ included, names. A use is an alias.Name selector resolved
// through the file's imports or, in the function's own package, a bare
// identifier outside its own declaration. Methods are out of scope:
// interfaces can reach them. A name in deadcodeKeep must stay uncalled,
// so the list cannot go stale.
func TestNoUncalledInternalFuncs(t *testing.T) {
	type file struct {
		pkg string // import path relative to the module root, "" for the root
		ast *ast.File
	}
	var files []file
	pkgName := map[string]string{} // relative import path -> package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." {
			dir = ""
		}
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	used := map[string]bool{}
	for _, f := range files {
		if strings.HasPrefix(f.pkg, "internal/") {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					declared[f.pkg+"."+fd.Name.Name] = true
				}
			}
		}
		imports := map[string]string{} // local name -> relative import path
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			rel, ok := strings.CutPrefix(p, "inplacehull/")
			if !ok {
				continue
			}
			local := pkgName[rel]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = rel
		}
		var visit func(n ast.Node) bool
		self := ""
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a use; a recursive call
				// inside a function does not count as a use of it.
				self = ""
				if n.Recv == nil {
					self = n.Name.Name
				}
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						used[rel+"."+n.Sel.Name] = true
						return false
					}
				}
				// A field or method name is not a package-level name.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			self = ""
			ast.Inspect(d, visit)
		}
	}

	keep := map[string]bool{}
	for _, k := range deadcodeKeep {
		keep[k] = true
		switch {
		case !declared[k]:
			t.Errorf("%s is in deadcodeKeep but no longer declared; drop it from the list", k)
		case used[k]:
			t.Errorf("%s is in deadcodeKeep but now has a caller; drop it from the list", k)
		}
	}
	var dead []string
	for d := range declared {
		if !used[d] && !keep[d] {
			dead = append(dead, d)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test file calls it; delete it with its tests, or add it to deadcodeKeep with the reason", d)
	}
}
