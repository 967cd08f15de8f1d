package repro

import (
	"go/build"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestLayering pins the package layering: a lower layer must not reach a
// higher one, directly or through another package. The observation store
// knows nothing of tracing (the engine attaches the store's window query
// counts to spans), the localization algorithms know nothing of the
// store, and the engine never depends on a command.
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
