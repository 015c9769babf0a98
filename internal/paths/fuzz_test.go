package paths

import (
	"testing"

	"repro/internal/tree"
)

// FuzzParse checks the path-syntax round trip: whatever Parse accepts,
// String prints a form that parses back to a query printing the same,
// and Compile turns the query into a well-formed automaton without
// panicking. The f.Add seeds plus the committed corpus under
// testdata/fuzz run on every `go test`.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"/doc//sec/fig",
		"//a",
		"/*",
		"//*//b/*",
		"/a//",
		"a/b",
		"///a",
		"/é//√",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		printed := q.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q fails: %v", s, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("round trip of %q: printed %q, reprinted %q", s, printed, again)
		}
		alphabet := []tree.Label{"a"}
		seen := map[tree.Label]bool{"a": true}
		for _, st := range q.Steps {
			if !seen[st.Label] {
				seen[st.Label] = true
				alphabet = append(alphabet, st.Label)
			}
		}
		a, err := Compile(q, alphabet, 0)
		if err != nil {
			t.Fatalf("Compile(%q): %v", s, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Compile(%q) is malformed: %v", s, err)
		}
	})
}
