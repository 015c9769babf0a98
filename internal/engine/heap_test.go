package engine_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// TestFrozenHeapPerNode guards the resident size of the frozen (box,
// index, counts) units: it registers the standing benchmark queries on a
// 20k-node random document and bounds the live heap per document node
// and the live heap objects per (node, pipeline) right after
// registration.
//
// Before compact units (every leaf with its own box, index and counts,
// counts in a per-pipeline evaluator map, one allocation per gate array)
// this setup held about 8750 live bytes per node and 26 live objects per
// (node, pipeline). With shared leaf units, counts folded onto the
// wrappers and one slab per inner unit it holds 4706 bytes and 10.1
// objects (amd64, go1.24); the bounds are those figures plus 10%.
func TestFrozenHeapPerNode(t *testing.T) {
	const n = 20000
	alphabet := []tree.Label{"a", "b", "c"}
	queries := []*tva.Unranked{
		tva.SelectLabel(alphabet, "b", 0),
		workload.AncestorQuery(),
		paths.MustCompile("//a/b", alphabet, 0),
		tva.SelectLabel(alphabet, "c", 0),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	doc := tva.RandomUnrankedTree(rand.New(rand.NewSource(1)), n, alphabet)
	if err := doc.Relabel(doc.Root.ID, "a"); err != nil {
		t.Fatal(err)
	}
	set := engine.NewTreeSet(doc)
	for _, q := range queries {
		if _, err := set.Register(q, engine.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	pipes := set.Stats().Pipelines
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(set)

	bytesPerNode := float64(after.HeapAlloc-before.HeapAlloc) / n
	objsPerUnit := float64(after.HeapObjects-before.HeapObjects) / float64(n*pipes)
	t.Logf("%d pipelines: %.0f live bytes per node, %.1f live objects per (node, pipeline)",
		pipes, bytesPerNode, objsPerUnit)
	if pipes != len(queries) {
		t.Fatalf("got %d pipelines, want %d", pipes, len(queries))
	}
	const maxBytesPerNode, maxObjsPerUnit = 5177, 11.1
	if bytesPerNode > maxBytesPerNode {
		t.Errorf("live heap %.0f B per node, bound %d", bytesPerNode, maxBytesPerNode)
	}
	if objsPerUnit > maxObjsPerUnit {
		t.Errorf("%.1f live objects per (node, pipeline), bound %.1f", objsPerUnit, maxObjsPerUnit)
	}
}
