package engine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tree"
	"repro/internal/tva"
)

// TestSnapshotIsolationStress is the -race stress test of the snapshot
// contract: N reader goroutines continuously pull the latest snapshot
// and enumerate it in full, while the writer applies interleaved
// insert/delete/relabel batches. Every verified snapshot's result set
// must match the tree version it was taken from — the writer records the
// expected set (keyed by snapshot version) right after each publication,
// and readers verify whichever published versions they manage to
// observe.
func TestSnapshotIsolationStress(t *testing.T) {
	const (
		readers     = 4
		minBatches  = 150
		maxBatches  = 20000
		minVerified = 200
		minVersions = 5
	)
	rng := rand.New(rand.NewSource(42))
	ut := tva.RandomUnrankedTree(rng, 150, []tree.Label{"a", "b", "c"})
	e, id := mustSelectB(t, ut)

	// expected maps snapshot version -> sorted result keys. Written only
	// by the writer goroutine; readers skip versions not yet recorded.
	var expected sync.Map
	expected.Store(e.Snapshot().Version(), expectedB(e.Tree()))

	var (
		done     atomic.Bool
		verified atomic.Int64
		distinct atomic.Int64
		versions sync.Map // distinct versions any reader verified
		wg       sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				snap := e.Snapshot().Query(id)
				want, ok := expected.Load(snap.Version())
				got := resultKeys(snap.Results()) // enumerate regardless: races would trip -race
				if !ok {
					continue // published after our load but before the writer recorded it
				}
				if !slices.Equal(got, want.([]string)) {
					t.Errorf("snapshot v%d: got %d results, want %d",
						snap.Version(), len(got), len(want.([]string)))
					return
				}
				verified.Add(1)
				if _, seen := versions.LoadOrStore(snap.Version(), true); !seen {
					distinct.Add(1)
				}
			}
		}()
	}

	// Writer: random batches of 1-6 valid edits. Each batch kind uses
	// distinct targets so it cannot fail halfway. The writer keeps
	// publishing until the readers have verified enough distinct
	// versions (the stream outruns a cold reader startup otherwise).
	wrng := rand.New(rand.NewSource(43))
	labels := []tree.Label{"a", "b", "c"}
	for i := 0; i < maxBatches; i++ {
		if i >= minBatches && verified.Load() >= minVerified && distinct.Load() >= minVersions {
			break
		}
		tr := e.Tree()
		nodes := tr.Nodes()
		k := 1 + wrng.Intn(6)
		var batch []Update
		switch wrng.Intn(3) {
		case 0: // relabels
			for j := 0; j < k; j++ {
				n := nodes[wrng.Intn(len(nodes))]
				batch = append(batch, Update{Op: OpRelabel, Node: n.ID, Label: labels[wrng.Intn(3)]})
			}
		case 1: // inserts (first child and right sibling mixed)
			for j := 0; j < k; j++ {
				n := nodes[wrng.Intn(len(nodes))]
				if n.Parent != nil && wrng.Intn(2) == 0 {
					batch = append(batch, Update{Op: OpInsertRightSibling, Node: n.ID, Label: labels[wrng.Intn(3)]})
				} else {
					batch = append(batch, Update{Op: OpInsertFirstChild, Node: n.ID, Label: labels[wrng.Intn(3)]})
				}
			}
		default: // deletes of distinct leaves (stay nonempty)
			var leaves []tree.NodeID
			for _, n := range nodes {
				if n.IsLeaf() && n.Parent != nil {
					leaves = append(leaves, n.ID)
				}
			}
			wrng.Shuffle(len(leaves), func(a, b int) { leaves[a], leaves[b] = leaves[b], leaves[a] })
			for j := 0; j < k && j < len(leaves); j++ {
				batch = append(batch, Update{Op: OpDelete, Node: leaves[j]})
			}
			if len(batch) == 0 {
				batch = append(batch, Update{Op: OpRelabel, Node: tr.Root.ID, Label: labels[wrng.Intn(3)]})
			}
		}
		snap, _, err := e.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		expected.Store(snap.Version(), expectedB(e.Tree()))
	}
	done.Store(true)
	wg.Wait()

	if verified.Load() < minVerified || distinct.Load() < minVersions {
		t.Fatalf("stress too weak: %d verifications over %d distinct versions",
			verified.Load(), distinct.Load())
	}
	t.Logf("verified %d enumerations across %d distinct snapshot versions", verified.Load(), distinct.Load())
}

// TestConcurrentReadersOneSnapshot runs many goroutines enumerating the
// SAME snapshot concurrently (the shared, frozen (box, index) units are
// read from all of them at once) while the writer keeps updating.
func TestConcurrentReadersOneSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ut := tva.RandomUnrankedTree(rng, 200, []tree.Label{"a", "b"})
	e, id := mustSelectB(t, ut)
	snap := e.Snapshot().Query(id)
	want := resultKeys(snap.Results())

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := resultKeys(snap.Results()); !slices.Equal(got, want) {
					errs <- "shared snapshot enumeration diverged"
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(8))
		for i := 0; i < 300; i++ {
			nodes := e.Tree().Nodes()
			n := nodes[wrng.Intn(len(nodes))]
			if _, err := e.Apply(Update{Op: OpRelabel, Node: n.ID, Label: []tree.Label{"a", "b"}[wrng.Intn(2)]}); err != nil {
				errs <- err.Error()
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
