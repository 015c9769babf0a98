package engine_test

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/leaktest"
	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// Goroutine-leak guards over the engine's goroutine-spawning paths: the
// PR 6 parallel streaming read (Chunks fans out workers that must die on
// an early break) and the delta-subscription lifecycle (each Subscribe
// starts a delivery goroutine that must die on Unregister, even with an
// undelivered pending delta and no consumer). Run under -race in CI.

func leakEngine(t *testing.T, n int) (*engine.TreeSet, engine.QueryID) {
	t.Helper()
	ut, err := workload.Tree(workload.ShapeRandom, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return newTreeQuery(t, ut, tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0), engine.Options{})
}

// TestLeakChunksEarlyBreak breaks out of a fanned-out Chunks stream
// after the first chunk; the producer workers behind it must wind down.
func TestLeakChunksEarlyBreak(t *testing.T) {
	e, id := leakEngine(t, 2000)
	leaktest.Check(t, func() {
		for range 20 {
			snap := e.Snapshot().Query(id)
			for chunk := range snap.Chunks(4, 8) {
				_ = chunk
				break // early break: workers + feeder must terminate
			}
		}
	})
}

// TestLeakSubscribeUnregisterChurn churns subscriptions with pending
// undelivered deltas and no consumer ever draining: every delivery
// goroutine must exit once its query is unregistered.
func TestLeakSubscribeUnregisterChurn(t *testing.T) {
	leaktest.Check(t, func() {
		for range 10 {
			e, id := leakEngine(t, 200)
			var chans []<-chan engine.Delta
			for range 5 {
				ch, err := e.Subscribe(id)
				if err != nil {
					t.Fatal(err)
				}
				chans = append(chans, ch)
			}
			// Publications pile deltas onto the never-draining
			// subscribers (seed resync still pending, offers coalesce).
			for i := range 4 {
				l := tree.Label("b")
				if i%2 == 1 {
					l = "c"
				}
				if _, _, err := e.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: 1, Label: l}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Unregister(id); err != nil {
				t.Fatal(err)
			}
			// Channels must be closed — drain to the close without help
			// from any writer.
			for _, ch := range chans {
				for range ch {
				}
			}
		}
	})
}

// TestLeakSubscribeWithActiveConsumer is the well-behaved variant: a
// consumer drains until close; after Unregister nothing survives.
func TestLeakSubscribeWithActiveConsumer(t *testing.T) {
	leaktest.Check(t, func() {
		e, id := leakEngine(t, 500)
		ch, err := e.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range ch {
			}
		}()
		for i := range 8 {
			l := tree.Label("b")
			if i%2 == 1 {
				l = "c"
			}
			if _, _, err := e.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: 1, Label: l}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Unregister(id); err != nil {
			t.Fatal(err)
		}
		<-done
	})
}

// TestLeakSubscribeRecordReleasesSuperseded checks that the keyed diff's
// answer records keep no superseded version alive: each record lives on
// the snapshot it describes and holds only singletons, so once a
// subscribed ambiguous query has published past a version and the
// consumer has dropped its deltas, that version's snapshot and its
// frozen root are collected.
func TestLeakSubscribeRecordReleasesSuperseded(t *testing.T) {
	ut, err := tree.ParseUnranked("(a (b) (c) (a (b) (c)) (b))")
	if err != nil {
		t.Fatal(err)
	}
	e, id := newTreeQuery(t, ut, paths.MustCompile("//a//b", []tree.Label{"a", "b", "c"}, 0), engine.Options{})
	ch, err := e.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	<-ch // the seed resync, which holds the current snapshot
	relabel := func(i int) {
		if _, _, err := e.ApplyBatch([]engine.Update{{Op: engine.OpRelabel, Node: 2, Label: tree.Label("bc"[i%2 : i%2+1])}}); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	relabel(0)
	// The first snapshot to carry a record.
	snap, root := func() (weak.Pointer[engine.Snapshot], weak.Pointer[enumerate.IndexedBox]) {
		s := e.Snapshot().Query(id)
		return weak.Make(s), weak.Make(s.Root())
	}()
	for i := range 8 {
		relabel(i + 1)
	}
	runtime.GC()
	if snap.Value() != nil || root.Value() != nil {
		t.Fatal("a superseded snapshot with an answer record is still reachable")
	}
	runtime.KeepAlive(e)
}
