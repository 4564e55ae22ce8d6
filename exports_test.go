package distbasics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestUnreferencedExports logs how many exported package-level
// identifiers (funcs, types, vars, consts) under internal/ no non-test
// file refers to — not in their own package, not elsewhere in the
// module, not in bench/: API that only tests (or nothing) keep alive.
// It is a number for the next simplicity sweep, printed by CI next to
// the tracked line count, and fails nothing.
//
// The scan is syntactic (go/parser, no type checker): a reference is a
// selector pkg.Name through a file's import of the package, or a bare
// identifier Name in the package's own files beyond its declaration. A
// local variable or field key that shadows the name reads as a
// reference, so the count is a lower bound.
func TestUnreferencedExports(t *testing.T) {
	const module = "distbasics"
	fset := token.NewFileSet()

	type pkg struct {
		name     string
		exported map[string]bool
		idents   map[string]int // bare identifier occurrences, declarations included
		files    []*ast.File
	}
	pkgs := map[string]*pkg{} // import path -> package, internal/ only
	var files []*ast.File     // every non-test file, module and bench/

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			p := pkgs[module+"/"+dir]
			if p == nil {
				p = &pkg{name: f.Name.Name, exported: map[string]bool{}, idents: map[string]int{}}
				pkgs[module+"/"+dir] = p
			}
			p.files = append(p.files, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						p.exported[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								p.exported[s.Name.Name] = true
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									p.exported[n.Name] = true
								}
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					ast.Inspect(n.X, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok {
							p.idents[id.Name]++
						}
						return true
					})
					return false // Sel names a field, a method or another package's identifier
				case *ast.Ident:
					p.idents[n.Name]++
				}
				return true
			})
		}
	}

	used := map[string]bool{} // "import/path.Name" selected through an import
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			p := pkgs[path]
			if p == nil {
				continue
			}
			name := p.name
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var total int
	var unreferenced []string
	for path, p := range pkgs {
		for name := range p.exported {
			total++
			if !used[path+"."+name] && p.idents[name] <= 1 {
				unreferenced = append(unreferenced, strings.TrimPrefix(path, module+"/")+"."+name)
			}
		}
	}
	sort.Strings(unreferenced)
	t.Logf("unreferenced exports under internal/: %d of %d exported package-level identifiers", len(unreferenced), total)
	for _, name := range unreferenced {
		t.Logf("  %s", name)
	}
}
