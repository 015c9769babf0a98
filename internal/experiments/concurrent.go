package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

// ConcurrentPoint is one row of the concurrent-readers baseline: the
// aggregate enumeration throughput of `Readers` goroutines, each pulling
// the latest snapshot and enumerating from it, while one writer applies
// an uninterrupted stream of random single-node updates.
type ConcurrentPoint struct {
	Readers          int     `json:"readers"`
	Results          int64   `json:"results"`            // results produced across all readers
	Enumerations     int64   `json:"enumerations"`       // snapshot iterations completed
	Updates          int64   `json:"updates"`            // writer updates applied during the window
	DurationSeconds  float64 `json:"duration_seconds"`   // measurement window
	ResultsPerSecond float64 `json:"results_per_second"` // aggregate throughput
	SpeedupVsOne     float64 `json:"speedup_vs_one"`     // vs the 1-reader row
}

// ConcurrentBaseline is the machine-readable output of the
// concurrent-readers experiment (written by cmd/benchtables as
// BENCH_concurrent.json), the perf trajectory anchor for the snapshot
// engine.
type ConcurrentBaseline struct {
	Env
	TreeNodes int               `json:"tree_nodes"`
	Query     string            `json:"query"`
	Points    []ConcurrentPoint `json:"points"`
}

// ConcurrentReaders measures aggregate snapshot-enumeration throughput
// at 1, 4 and 16 readers under a concurrent update stream. Readers are
// lock-free (each iteration is one atomic snapshot load plus a walk of
// frozen structure), so on a multicore machine the aggregate throughput
// scales with the reader count; the writer's updates never block or
// disturb them.
func ConcurrentReaders(quick bool) ConcurrentBaseline {
	n := 20000
	window := time.Second
	if quick {
		n = 2000
		window = 200 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(77))
	ut, err := workload.Tree(workload.ShapeRandom, n, rng)
	if err != nil {
		panic(err)
	}
	q := workload.AncestorQuery()

	base := ConcurrentBaseline{
		Env:       currentEnv(),
		TreeNodes: n,
		Query:     "ancestor (E1-E4 standing query)",
	}
	for _, readers := range []int{1, 4, 16} {
		eng := newOneQuery(ut.Clone(), q, engine.Options{})
		var (
			results atomic.Int64
			enums   atomic.Int64
			updates atomic.Int64
			stop    atomic.Bool
			wg      sync.WaitGroup
		)
		// Writer: continuous random single updates. The measurement
		// window opens once the writer has applied its first update:
		// started before it, the readers can starve the writer's
		// goroutine for the whole window on a small, loaded box, and the
		// row would measure readers without the update stream it claims.
		writing := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			ed := workload.NewEditor(eng, rand.New(rand.NewSource(78)))
			for !stop.Load() {
				if err := ed.Step(); err != nil {
					panic(err)
				}
				if updates.Add(1) == 1 {
					close(writing)
				}
			}
		}()
		<-writing
		// Readers: latest snapshot, full enumeration, repeat.
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					k := int64(0)
					for range eng.snap().Results() {
						k++
					}
					results.Add(k)
					enums.Add(1)
				}
			}()
		}
		start := time.Now()
		time.Sleep(window)
		stop.Store(true)
		wg.Wait()
		dur := time.Since(start).Seconds()
		base.Points = append(base.Points, ConcurrentPoint{
			Readers:          readers,
			Results:          results.Load(),
			Enumerations:     enums.Load(),
			Updates:          updates.Load(),
			DurationSeconds:  dur,
			ResultsPerSecond: float64(results.Load()) / dur,
		})
	}
	for i := range base.Points {
		base.Points[i].SpeedupVsOne = base.Points[i].ResultsPerSecond / base.Points[0].ResultsPerSecond
	}
	return base
}

// Table renders the baseline as a markdown table for the benchtables
// output.
func (b ConcurrentBaseline) Table() Table {
	t := Table{
		ID:     "C1",
		Title:  "Concurrent snapshot readers under an update stream",
		Claim:  fmt.Sprintf("lock-free readers scale with cores (GOMAXPROCS=%d); updates never block them", b.GoMaxProcs),
		Header: []string{"readers", "results/s", "speedup", "enumerations", "writer updates"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Readers),
			fmt.Sprintf("%.0f", p.ResultsPerSecond),
			fmt.Sprintf("%.2fx", p.SpeedupVsOne),
			fmt.Sprint(p.Enumerations),
			fmt.Sprint(p.Updates),
		})
	}
	return t
}
