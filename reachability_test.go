package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesHaveImporters fails when a package under internal/
// has no non-test importer outside its own directory: such a package is
// reached by no command, example or library path, only by its own tests.
// Directories that hold only test files (harnesses such as
// internal/distributed/e2e) are exempt. Nested modules (roundbench) are
// not part of this module and are skipped.
func TestInternalPackagesHaveImporters(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	var internalDirs []string
	imported := map[string]bool{} // import paths of non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if strings.HasPrefix(dir, "internal/") {
			internalDirs = append(internalDirs, dir)
		}
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			imported[ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internalDirs) == 0 {
		t.Fatal("found no packages under internal/; is the test running from the module root?")
	}
	// A package cannot import itself, so any non-test importer of dir's
	// import path lives outside dir.
	slices.Sort(internalDirs)
	for _, dir := range slices.Compact(internalDirs) {
		if !imported[path.Join(module, dir)] {
			t.Errorf("%s has no non-test importer outside its own directory; delete it or wire it into a shipped path", dir)
		}
	}
}
