package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestCommittedBaselinesDecode pins the committed BENCH_*.json files to
// the registry: one file per baseline entry, each decoding into the
// entry's type with no unknown field, so a renamed or dropped field
// fails here instead of in CI's jq bounds.
func TestCommittedBaselinesDecode(t *testing.T) {
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var registered []string
	for _, e := range Registry {
		if e.Baseline == "" {
			continue
		}
		path := filepath.Join("../..", "BENCH_"+e.Baseline+".json")
		registered = append(registered, path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(e.schema()); err != nil {
			t.Errorf("%s: %s does not decode: %v", e.ID, path, err)
		}
	}
	slices.Sort(committed)
	slices.Sort(registered)
	if !slices.Equal(committed, registered) {
		t.Fatalf("committed baselines %v, registry baselines %v", committed, registered)
	}
}
