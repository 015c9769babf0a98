package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names a span; the part before the dot is the layer.
type spanName uint8

const (
	spPublish spanName = iota
	spPage
	spDrain
	spForestEdit
	spForestDrain
	spPipeline
	spBox
	spIndex
	spUnions
	spForget
	spDiff
	spFallback
	spAt
	spMaterialize
	spNext
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.publish", "op.page", "op.drain",
	"forest.edit", "forest.drain",
	"replica.pipeline",
	"circuit.box", "enumerate.index", "counting.unions", "counting.forget",
	"enumerate.diff", "engine.fallback_diff",
	"enumerate.at", "enumerate.materialize", "enumerate.next",
}

// isLayer reports whether a span times a layer of the engine, as opposed
// to the replica's own bookkeeping (operation roots, pipeline loop).
func (n spanName) isLayer() bool { return n > spDrain && n != spPipeline }

// span is one timed interval. Spans of one operation share op; parent
// indexes the enclosing span (-1 for an operation root).
type span struct {
	start, end int64 // ns since the tracer's epoch
	op, parent int32
	name       spanName
}

// tracer records spans in memory. A span is opened with begin and closed
// with end, strictly nested; with on false both are no-ops, which is the
// replica's untraced mode.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(n spanName) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), op: t.op, parent: parent, name: n})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = int64(time.Since(t.epoch))
}

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(n spanName) {
	t.op++
	t.begin(n)
}

// layerTotals aggregates the recorded spans per name (calls, total
// duration) and sums self times: a span's duration minus its direct
// children's (spans nest serially, so children never overlap).
type layerTotals struct {
	calls [numSpanNames]int
	total [numSpanNames]time.Duration
	// layerSelf sums the self time of layer spans by the name of their
	// operation's root; allSelf sums the self time of every span.
	layerSelf [numSpanNames]time.Duration
	allSelf   time.Duration
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	root := spPublish
	for i, s := range t.spans {
		if s.parent < 0 {
			root = s.name // an operation's spans follow its root
		}
		d := time.Duration(s.end - s.start)
		self := d - time.Duration(child[i])
		lt.calls[s.name]++
		lt.total[s.name] += d
		lt.allSelf += self
		if s.name.isLayer() {
			lt.layerSelf[root] += self
		}
	}
	return lt
}

// write stores the spans as tab-separated lines: op, span index, parent
// index, name, start and end in ns since the tracer's epoch.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
