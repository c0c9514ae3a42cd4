package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasAnImporter keeps the lean audit's rule
// that every package is reached by something: each directory under
// internal/ with non-test Go files must be imported by a .go file
// outside that directory. It reads only the import blocks of every .go
// file in the repository, the nested benchmark/ module included, and
// skips testdata/ and hidden directories.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	const module = "repro/"
	hasCode := map[string]bool{}  // internal package dirs with non-test files
	imported := map[string]bool{} // package dirs imported from another dir
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		p = filepath.ToSlash(p)
		dir := path.Dir(p)
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(p, "_test.go") {
			hasCode[dir] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if pkg, ok := strings.CutPrefix(ip, module); ok && pkg != dir {
				imported[pkg] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for pkg := range hasCode {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		if !imported[pkg] {
			t.Errorf("%s has non-test Go files and no importer: reach it from a figure, gate, workload or example, or delete it", pkg)
		}
	}
}
