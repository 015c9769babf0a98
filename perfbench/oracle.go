package main

import (
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/tree"
)

// answerSet is an answer set keyed by tree.Assignment.Key.
type answerSet map[string]struct{}

func keysOf(as []tree.Assignment) answerSet {
	out := make(answerSet, len(as))
	for _, a := range as {
		out[a.Key()] = struct{}{}
	}
	return out
}

// oracleAnswers rebuilds the query from scratch on a copy of the
// document (baseline.RebuildEnumerator) and returns its answer set: the
// differential oracle every engine answer is checked against.
func oracleAnswers(t *tree.Unranked, query string) (answerSet, error) {
	q, err := queryByName(query)
	if err != nil {
		return nil, err
	}
	r, err := baseline.NewRebuildEnumerator(t.Clone(), q, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle rebuild of %s: %w", query, err)
	}
	out := answerSet{}
	for a := range r.Results() {
		out[a.Key()] = struct{}{}
	}
	return out, nil
}

// checkAnswers is the oracle gate: got must hold exactly the answers of
// want, each once.
func checkAnswers(what string, got []tree.Assignment, want answerSet) error {
	seen := make(answerSet, len(got))
	for _, a := range got {
		k := a.Key()
		if _, dup := seen[k]; dup {
			return fmt.Errorf("%s: answer %s returned twice", what, k)
		}
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s: answer %s is not in the oracle's set", what, k)
		}
		seen[k] = struct{}{}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%s: %d answers, oracle has %d", what, len(seen), len(want))
	}
	return nil
}

// checkSet compares two keyed answer sets.
func checkSet(what string, got, want answerSet) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d answers, oracle has %d", what, len(got), len(want))
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s: answer %s is not in the oracle's set", what, k)
		}
	}
	return nil
}

// checkPage compares one served page with the same slice of the
// snapshot's full answer list.
func checkPage(all, page []tree.Assignment, offset int) error {
	end := min(offset+pageLimit, len(all))
	if offset > end {
		offset = end
	}
	want := all[offset:end]
	if !slices.EqualFunc(page, want, func(a, b tree.Assignment) bool { return a.Key() == b.Key() }) {
		return fmt.Errorf("page at offset %d (%d answers) differs from All()[%d:%d]", offset, len(page), offset, end)
	}
	return nil
}

// foldDelta applies one subscriber delta to the client's materialized
// answer set (a resync replaces it).
func foldDelta(set answerSet, d engine.Delta) answerSet {
	if d.Resync != nil {
		return keysOf(d.Resync.All())
	}
	for _, a := range d.Removed {
		delete(set, a.Key())
	}
	for _, a := range d.Added {
		set[a.Key()] = struct{}{}
	}
	return set
}
