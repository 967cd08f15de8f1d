package repro

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestLayering pins the package layering: a lower layer must not reach a
// higher one, directly or through another package. The observation store
// knows nothing of tracing (the engine attaches the store's window query
// counts to spans), the localization algorithms know nothing of the
// store, the engine never depends on a command, and only commands import
// the operational layer.
func TestLayering(t *testing.T) {
	if !slices.Contains(moduleDeps(t, "internal/engine"), "internal/obs") {
		t.Fatal("the import walk missed engine → obs; the guard would read nothing")
	}
	for _, rule := range []struct{ from, to string }{
		{"internal/obs", "internal/telemetry/trace"},
		{"internal/core", "internal/obs"},
		{"internal/engine", "cmd"},
	} {
		for _, dep := range moduleDeps(t, rule.from) {
			if dep == rule.to || strings.HasPrefix(dep, rule.to+"/") {
				t.Errorf("%s depends on %s; that edge breaks the layering", rule.from, dep)
			}
		}
	}
	// The operational layer (flags, process lifecycle) belongs to the
	// commands: a library, example or the benchmark importing it would
	// couple itself to one process's flags and signal handling.
	opsImporters := importers(t, "internal/ops")
	if !slices.Contains(opsImporters, "cmd/marauder") {
		t.Fatal("the import walk missed cmd/marauder → ops; the guard would read nothing")
	}
	for _, dir := range opsImporters {
		if dir != "cmd" && !strings.HasPrefix(dir, "cmd/") {
			t.Errorf("%s imports internal/ops; only cmd/... may", dir)
		}
	}
}

// importers walks every package directory under the repository root,
// the bench module included, and returns those whose code or tests
// import the module-relative package pkg.
func importers(t *testing.T, pkg string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		p, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, imports := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			if slices.Contains(imports, "repro/"+pkg) {
				dirs = append(dirs, dir)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// moduleDeps returns the in-module packages pkg imports, transitively,
// as module-relative directories. Test files are not followed.
func moduleDeps(t *testing.T, pkg string) []string {
	t.Helper()
	const module = "repro/"
	seen := map[string]bool{}
	queue := []string{pkg}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		p, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("read imports of %s: %v", dir, err)
		}
		for _, imp := range p.Imports {
			if rel, ok := strings.CutPrefix(imp, module); ok && !seen[rel] {
				seen[rel] = true
				queue = append(queue, rel)
			}
		}
	}
	deps := make([]string, 0, len(seen))
	for d := range seen {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	return deps
}
