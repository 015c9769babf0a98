package main

import (
	"bytes"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, buf.String())
	}
	return buf.String()
}

// TestSelectQuery smoke-tests the basic select flow.
func TestSelectQuery(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (a (b)))", "-query", "select:b")
	if !strings.Contains(out, "2 result(s)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestEditStream smoke-tests edit replay with per-edit re-enumeration.
func TestEditStream(t *testing.T) {
	out := runOut(t, "-tree", "(u (u (u)))", "-query", "ancestor:m:u:s",
		"-edits", "relabel 0 m; relabel 2 s", "-stats")
	if !strings.Contains(out, "0 result(s)") || !strings.Contains(out, "1 result(s)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "stats:") {
		t.Fatalf("missing stats:\n%s", out)
	}
}

// TestBatchMode smoke-tests the single-publication batch path.
func TestBatchMode(t *testing.T) {
	out := runOut(t, "-tree", "(a (b))", "-query", "select:b", "-batch",
		"-edits", "insert 0 b; relabel 1 a")
	if !strings.Contains(out, "after batch of 2 edits (snapshot v2)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// b at node 1 was relabeled away; the batch inserted one fresh b.
	if !strings.Contains(out, "1 result(s)") {
		t.Fatalf("unexpected result count:\n%s", out)
	}
}

// TestStructuralEdits smoke-tests the structural edit syntax: a graft,
// a subtree move and a subtree delete, per-edit and batched.
func TestStructuralEdits(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (a))", "-query", "select:b",
		"-edits", "insertSub 2 (a (b) (b)); moveSub 1 2; deleteSub 3")
	// Graft adds two b-nodes (3 total), the move keeps the count, the
	// subtree delete removes the grafted pair (1 left).
	if !strings.Contains(out, "(new subtree 3)") {
		t.Fatalf("missing graft root ID:\n%s", out)
	}
	for _, want := range []string{"1 result(s)", "3 result(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}

	out = runOut(t, "-tree", "(a (b) (a))", "-query", "select:b", "-batch",
		"-edits", "insertSubR 1 (a (b)); moveSubR 3 1; deleteSub 1")
	if !strings.Contains(out, "after batch of 3 edits") {
		t.Fatalf("unexpected batch output:\n%s", out)
	}
	if !strings.Contains(out, "1 result(s)") {
		t.Fatalf("unexpected result count:\n%s", out)
	}
}

// TestMultiQuery runs two standing queries over one edit stream: both
// blocks must appear, labeled, and both must see the edit.
func TestMultiQuery(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (c))", "-query", "select:b", "-query", "select:c",
		"-edits", "relabel 2 b")
	if !strings.Contains(out, "[select:b]") || !strings.Contains(out, "[select:c]") {
		t.Fatalf("missing per-query headers:\n%s", out)
	}
	// After the relabel the c-query must be empty and the b-query must
	// have both nodes.
	tail := out[strings.Index(out, "after"):]
	if !strings.Contains(tail, "2 result(s)") || !strings.Contains(tail, "0 result(s)") {
		t.Fatalf("unexpected post-edit counts:\n%s", out)
	}
}

// TestMultiQueryBatch applies a batch with several standing queries: one
// publication, every query re-answered.
func TestMultiQueryBatch(t *testing.T) {
	out := runOut(t, "-tree", "(a (b))", "-query", "select:b", "-query", "select:a", "-batch",
		"-edits", "insert 0 b; relabel 1 a", "-stats")
	if !strings.Contains(out, "after batch of 2 edits (snapshot v3)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "stats [select:b]:") || !strings.Contains(out, "stats [select:a]:") {
		t.Fatalf("missing per-query stats:\n%s", out)
	}
}

// TestDedupeNote repeats one query spec: the optimizer must dedupe the
// twin onto the first registration's pipeline and say so, both answers
// staying intact — and distinct specs must stay silent.
func TestDedupeNote(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (a (b)))", "-query", "select:b", "-query", "select:b",
		"-edits", "relabel 1 a")
	if !strings.Contains(out, "shared pipeline: 1 of 2 queries deduped onto 1 pipeline(s)") {
		t.Fatalf("missing shared-pipeline note:\n%s", out)
	}
	// Both twins answer before and after the edit (2 then 1 b-node).
	if got := strings.Count(out, "2 result(s)"); got != 2 {
		t.Fatalf("want both twins to print 2 result(s) pre-edit, got %d:\n%s", got, out)
	}
	if got := strings.Count(out, "1 result(s)"); got != 2 {
		t.Fatalf("want both twins to print 1 result(s) post-edit, got %d:\n%s", got, out)
	}

	out = runOut(t, "-tree", "(a (b) (c))", "-query", "select:b", "-query", "select:c")
	if strings.Contains(out, "shared pipeline") {
		t.Fatalf("distinct queries must not print the dedupe note:\n%s", out)
	}
}

// TestErrors covers flag validation and bad edits.
func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-query", "select:b"}, &buf); err == nil {
		t.Fatal("missing -tree should fail")
	}
	if err := run([]string{"-tree", "(a)", "-query", "select:b", "-edits", "explode 0"}, &buf); err == nil {
		t.Fatal("unknown edit should fail")
	}
	if err := run([]string{"-tree", "(a)", "-query", "nope:x"}, &buf); err == nil {
		t.Fatal("unknown query should fail")
	}
	for _, q := range []string{"descdepth:b:0", "descdepth:b:-1", "descdepth:b:x", "descdepth:b"} {
		err := run([]string{"-tree", "(a (b) (a (b)))", "-query", q}, &buf)
		if err == nil || !strings.Contains(err.Error(), "usage: descdepth:<witness>:<k>, k >= 1") {
			t.Fatalf("-query %s: got %v, want the descdepth usage error", q, err)
		}
	}
}

// TestCountFlag checks -count prints per-query counts without results,
// marked "direct" for unambiguous queries.
func TestCountFlag(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (a (b)))", "-query", "select:b", "-count",
		"-edits", "insert 0 b")
	if !strings.Contains(out, "2 result(s) [direct]") || !strings.Contains(out, "3 result(s) [direct]") {
		t.Fatalf("unexpected -count output:\n%s", out)
	}
	if strings.Contains(out, "⟨") {
		t.Fatalf("-count must not print assignments:\n%s", out)
	}
}

// TestPageFlag checks -page prints exactly the requested slice with
// absolute ranks.
func TestPageFlag(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (b) (b) (b))", "-query", "select:b", "-page", "1:2")
	if !strings.Contains(out, "#1 ") || !strings.Contains(out, "#2 ") {
		t.Fatalf("missing page ranks:\n%s", out)
	}
	if strings.Contains(out, "#0 ") || strings.Contains(out, "#3 ") {
		t.Fatalf("page printed out-of-range ranks:\n%s", out)
	}
	if !strings.Contains(out, "page 1:2 of 4 result(s)") {
		t.Fatalf("missing page footer:\n%s", out)
	}
}

// TestPageFlagValidation rejects malformed -page specs.
func TestPageFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-tree", "(a (b))", "-query", "select:b", "-page", "oops"}, &buf); err == nil {
		t.Fatal("malformed -page accepted")
	}
	if err := run([]string{"-tree", "(a (b))", "-query", "select:b", "-page", "-1:5"}, &buf); err == nil {
		t.Fatal("negative -page offset accepted")
	}
}

// TestPageFlagTrailingGarbage rejects specs that parse a valid prefix.
func TestPageFlagTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	for _, bad := range []string{"10:20:30", "10:20x", "x10:20", "10"} {
		if err := run([]string{"-tree", "(a (b))", "-query", "select:b", "-page", bad}, &buf); err == nil {
			t.Fatalf("-page %q accepted", bad)
		}
	}
}

// TestWatchFlag: -watch prints only the change per edit — one +/- line
// per answer gained/lost — instead of re-printing full results.
func TestWatchFlag(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (a (b)))", "-query", "select:b",
		"-watch", "-edits", "relabel 1 a; relabel 1 b; insert 2 b")
	for _, want := range []string{
		"-{<X0:n1>}", // relabel 1 a loses the answer at node 1
		"+{<X0:n1>}", // relabel 1 b regains it
		"+{<X0:n4>}", // insert 2 b gains the fresh node
		"0 added, 1 removed",
		"1 added, 0 removed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in -watch output:\n%s", want, out)
		}
	}
	// The base results print once; edits must NOT re-print result counts.
	if strings.Count(out, "result(s)") != 1 {
		t.Fatalf("-watch re-printed full results:\n%s", out)
	}
}

// TestWatchBatch: with -batch the whole edit stream is one publication,
// so -watch prints one composed delta (internal churn cancelled).
func TestWatchBatch(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (c))", "-query", "select:b", "-batch",
		"-watch", "-edits", "relabel 1 c; relabel 2 b")
	if !strings.Contains(out, "+{<X0:n2>}") || !strings.Contains(out, "-{<X0:n1>}") {
		t.Fatalf("missing batch delta lines:\n%s", out)
	}
	if !strings.Contains(out, "1 added, 1 removed") {
		t.Fatalf("missing delta footer:\n%s", out)
	}
}

// TestWatchMultiQuery: each standing query gets its own delta block.
func TestWatchMultiQuery(t *testing.T) {
	out := runOut(t, "-tree", "(a (b) (c))", "-query", "select:b", "-query", "select:c",
		"-watch", "-edits", "relabel 2 b")
	if !strings.Contains(out, "[select:b]") || !strings.Contains(out, "[select:c]") {
		t.Fatalf("missing per-query blocks:\n%s", out)
	}
	if !strings.Contains(out, "+{<X0:n2>}") || !strings.Contains(out, "-{<X0:n2>}") {
		t.Fatalf("missing per-query delta lines:\n%s", out)
	}
}

// TestWatchNeedsEdits rejects -watch without -edits.
func TestWatchNeedsEdits(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-tree", "(a (b))", "-query", "select:b", "-watch"}, &buf); err == nil {
		t.Fatal("-watch without -edits accepted")
	}
}
