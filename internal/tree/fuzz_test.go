package tree

import "testing"

// FuzzParseUnranked checks the S-expression round trip: whatever
// ParseUnranked accepts, String prints a form that parses back to a
// tree printing the same. The f.Add seeds plus the committed corpus
// under testdata/fuzz run on every `go test`.
func FuzzParseUnranked(f *testing.F) {
	for _, s := range []string{
		"(a)",
		"(a (b) (a (b)))",
		"  (doc\t(sec (fig) (cap))\n(sec))  ",
		"(a (b c))",
		"((a))",
		"(a (b)",
		"(a) (b)",
		"(é (ü) (√))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseUnranked(s)
		if err != nil {
			return
		}
		printed := tr.String()
		back, err := ParseUnranked(printed)
		if err != nil {
			t.Fatalf("ParseUnranked(%q) accepted, but its String %q fails: %v", s, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("round trip of %q: printed %q, reprinted %q", s, printed, again)
		}
	})
}
