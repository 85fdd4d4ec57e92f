package rasa_test

import (
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// layerImports pins the allowed import edges between the internal
// packages (paths relative to internal/): a package may import only the
// internal packages listed for it. Solvers sit at the bottom (solve, lp,
// mip, cg, pool), the pipeline above them (partition, sched, core), the
// online layers above that (lifetime, incr, exec, fed), and the server
// on top. A new edge is a design decision: add it here, in the same
// change, where a reviewer sees it.
var layerImports = map[string][]string{
	"cg":              {"cluster", "lp", "mip", "model", "solve"},
	"cluster":         {"graph"},
	"core":            {"cluster", "migrate", "partition", "pool", "sched", "selector", "solve"},
	"exec":            {"cluster", "incr", "lifetime", "migrate", "obs", "snapshot"},
	"experiments":     {"cg", "cluster", "core", "mip", "model", "partition", "pool", "powerlaw", "prodsim", "sched", "selector", "workload"},
	"fed":             {"cluster", "exec", "graph", "incr", "lifetime", "migrate", "obs", "partition", "solve"},
	"gnn":             {"cluster", "graph"},
	"graph":           {},
	"incr":            {"cluster", "core", "lifetime", "migrate", "obs", "partition", "pool", "sched", "selector", "solve"},
	"lifetime":        {"cluster", "graph", "snapshot"},
	"lifetime/record": {"cluster", "exec", "incr", "lifetime", "snapshot", "workload", "workload/churn"},
	"lp":              {"solve"},
	"migrate":         {"cluster"},
	"mip":             {"lp", "solve"},
	"model":           {"cluster", "lp", "mip"},
	"obs":             {"solve"},
	"partition":       {"cluster", "graph"},
	"pool":            {"cg", "cluster", "lp", "mip", "model", "solve"},
	"powerlaw":        {},
	"prodsim":         {"cluster", "core", "exec", "incr", "migrate", "partition", "sched", "workload", "workload/churn"},
	"sched":           {"cluster", "partition", "pool"},
	"selector":        {"cluster", "gnn", "model", "pool"},
	"server":          {"cluster", "core", "exec", "fed", "incr", "lifetime", "migrate", "obs", "pool", "sched", "selector", "snapshot", "solve"},
	"snapshot":        {"cluster", "graph"},
	"solve":           {},
	"workload":        {"cluster", "graph", "sched"},
	"workload/churn":  {"cluster", "lifetime", "workload"},
}

// TestLayerImports reads the imports of every package under internal/
// (non-test files, build constraints applied, without running the go
// command) and fails on any internal import edge layerImports does not
// list, on any package it does not know, and on any it lists that is
// gone.
func TestLayerImports(t *testing.T) {
	const prefix = "github.com/cloudsched/rasa/internal/"
	found := make(map[string]bool)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.Default.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		name := strings.TrimPrefix(filepath.ToSlash(path), "internal/")
		allowed, known := layerImports[name]
		if !known {
			t.Errorf("internal/%s is not in layerImports: pin its imports there", name)
			return nil
		}
		found[name] = true
		var used []string
		for _, imp := range pkg.Imports {
			if dep, ok := strings.CutPrefix(imp, prefix); ok {
				used = append(used, dep)
				if !slices.Contains(allowed, dep) {
					t.Errorf("internal/%s imports internal/%s, an edge layerImports does not allow", name, dep)
				}
			}
		}
		for _, dep := range allowed {
			if !slices.Contains(used, dep) {
				t.Logf("internal/%s no longer imports internal/%s: the edge can leave layerImports", name, dep)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range layerImports {
		if !found[name] {
			t.Errorf("layerImports lists internal/%s, which holds no package", name)
		}
	}
}
