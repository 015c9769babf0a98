// Command quickstart is the smallest end-to-end tour of the library:
// build a tree, run an automaton query, enumerate, edit the tree, and
// enumerate again — all through the public facade, where every edit is
// an Update applied by ApplyBatch. It finishes with snapshot isolation —
// a batched update and an old snapshot that keeps answering for its own
// version — and a QuerySet where a duplicate registration is deduped
// onto one shared pipeline.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	enumtrees "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A small document tree.
	t, err := enumtrees.ParseTree("(doc (sec (par) (fig)) (sec (par)))")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "tree:", t)

	// Query: X0 selects a node labeled "fig".
	alpha := []enumtrees.Label{"doc", "sec", "par", "fig"}
	q := enumtrees.SelectLabel(alpha, "fig", 0)

	// Preprocess (linear time) and enumerate (constant delay per result).
	e, id, err := enumtrees.New(t, q, enumtrees.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "figures:")
	for asg := range e.Snapshot().Query(id).Results() {
		fmt.Fprintf(w, "  %v (node %d)\n", asg, asg[0].Node)
	}

	// Edit the tree: add a figure to the second section (O(log n)).
	var secondSec enumtrees.NodeID
	for _, n := range t.Nodes() {
		if n.Label == "sec" {
			secondSec = n.ID // last one wins
		}
	}
	m, ids, err := e.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: secondSec, Label: "fig"},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inserted fig as node %d\n", ids[0])

	// Enumeration restarts on the updated tree.
	snap := m.Query(id)
	fmt.Fprintln(w, "figures now:", snap.Count())
	st := snap.Stats()
	fmt.Fprintf(w, "structures: %d boxes, width %d, term height %d\n",
		st.Boxes, st.CircuitWidth, st.TermHeight)

	// Snapshot isolation: updates publish immutable versions, and a
	// snapshot taken before an edit keeps answering for its version —
	// that is what makes concurrent readers safe.
	t2, err := enumtrees.ParseTree("(doc (sec (fig) (par)))")
	if err != nil {
		return err
	}
	eng, id2, err := enumtrees.New(t2, q, enumtrees.Options{})
	if err != nil {
		return err
	}
	before := eng.Snapshot().Query(id2)
	after, _, err := eng.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: t2.Root.ID, Label: "fig"},
		{Op: enumtrees.OpInsertFirstChild, Node: t2.Root.ID, Label: "fig"},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "engine: snapshot v%d sees %d figure(s), v%d sees %d (batch of 2 edits, one publication)\n",
		before.Version(), before.Count(), after.Version(), after.Query(id2).Count())

	// Many subscribers, one query: registering the same automaton again
	// on a QuerySet is deduped onto a shared refcounted pipeline by the
	// multi-query optimizer — k near-duplicate standing queries cost ~1
	// pipeline of repair per edit.
	t3, err := enumtrees.ParseTree("(doc (sec (fig) (fig)) (sec (fig)))")
	if err != nil {
		return err
	}
	qs := enumtrees.NewQuerySet(t3)
	a, err := qs.Register(q, enumtrees.Options{})
	if err != nil {
		return err
	}
	b, err := qs.Register(enumtrees.SelectLabel(alpha, "fig", 0), enumtrees.Options{})
	if err != nil {
		return err
	}
	est := qs.Stats()
	m = qs.Snapshot()
	fmt.Fprintf(w, "query set: %d queries share %d pipeline(s); both count %d/%d figures\n",
		est.Queries, est.Pipelines, m.Query(a).Count(), m.Query(b).Count())
	return nil
}
