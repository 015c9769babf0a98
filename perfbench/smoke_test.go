package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/tree"
)

// tiny runs a workload at 2% of its document and round sizes and
// returns its result line as printed.
func tiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.02})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var printed result
	if err := json.Unmarshal(line, &printed); err != nil {
		t.Fatal(err)
	}
	if !printed.Correct || printed.Attempted == 0 || printed.Failed != 0 {
		t.Fatalf("%s (trace %v): correct %v, attempted %d, failed %d", workload, trace, printed.Correct, printed.Attempted, printed.Failed)
	}
	return printed
}

func checkMetrics(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", what, d.name, m.Value)
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range []string{"standing", "ambiguous"} {
		checkMetrics(t, w, tiny(t, w, false).Metrics, endToEnd)
		res := tiny(t, w, true)
		checkMetrics(t, w+" traced", res.Metrics, perLayer)
		// Self times of the traced operations add up to their wall time.
		if e := res.Metrics["trace.self_sum_error"].Value; math.Abs(e) > 0.05 {
			t.Errorf("%s: layer self times miss the traced wall time by %.1f%%", w, 100*e)
		}
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, err := specFor(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

func TestOracleGateRejectsTamperedAnswers(t *testing.T) {
	sp, err := specFor("standing", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := newRunner(sp, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.checkpoint(); err != nil {
		t.Fatalf("untampered engine fails the gate: %v", err)
	}
	want, err := oracleAnswers(r.mir.t, "select:b")
	if err != nil {
		t.Fatal(err)
	}
	all := r.snap(0).All()
	if len(all) < 2 {
		t.Fatalf("need at least two answers, have %d", len(all))
	}
	if err := checkAnswers("engine", all, want); err != nil {
		t.Fatalf("untampered answers fail the gate: %v", err)
	}
	bogus := tree.Assignment{{Var: 0, Node: tree.NodeID(1 << 30)}}
	for name, got := range map[string][]tree.Assignment{
		"dropped":    all[1:],
		"duplicated": append(all[:len(all):len(all)], all[0]),
		"replaced":   append([]tree.Assignment{bogus}, all[1:]...),
	} {
		if checkAnswers("engine", got, want) == nil {
			t.Errorf("%s answer set passes the gate", name)
		}
	}
	folded := keysOf(all)
	delete(folded, all[0].Key())
	if checkSet("deltas", folded, want) == nil {
		t.Error("folded deltas missing an answer pass the gate")
	}
	if checkPage(all, all[1:], 0) == nil {
		t.Error("a shifted page passes the gate")
	}
}
