package duplexity

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoUnreferencedInternalExports fails on any package-level exported
// func, type, const or var declared in a non-test file under internal/
// whose name appears as an identifier nowhere in the repo's Go files but
// at its own declaration. Every use counts as a reference: its own
// package, tests, cmd/, examples/ and the perfbench module alike, so a test
// oracle or a test-observed accessor passes, while a name nothing uses
// does not ship.
//
// The match is by name only, so a name shared with an identifier elsewhere
// hides an unused declaration; the guard errs towards passing. There is no
// allowlist. Methods are out of scope: interface methods such as String,
// Error or Unwrap are called implicitly, so a method with no named caller
// may still be live.
func TestNoUnreferencedInternalExports(t *testing.T) {
	type decl struct{ name, file string }
	var decls []decl
	uses := map[string]int{} // identifier name -> occurrences, declarations included

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				if dl.Recv == nil && dl.Name.IsExported() {
					decls = append(decls, decl{dl.Name.Name, path})
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							decls = append(decls, decl{spec.Name.Name, path})
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								decls = append(decls, decl{n.Name, path})
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	for _, d := range decls {
		if uses[d.name] == 1 { // the declaration itself
			t.Errorf("%s: %s is exported but never used; delete it", d.file, d.name)
		}
	}
}
