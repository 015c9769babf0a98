// Command spanner runs information extraction over a mutating log line
// (Theorem 8.5 / document spanners): the pattern captures error codes
// "E<digits>" and the extraction stays current as the text is edited —
// the words-under-updates scenario of Section 8. Edits go through the
// snapshot word engine as Updates, so every shown extraction reads one
// published version.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	enumtrees "repro"
)

const text = "boot ok E17 disk warm E4 net flap"

func digits() []enumtrees.Pattern {
	var ds []enumtrees.Pattern
	for c := '0'; c <= '9'; c++ {
		ds = append(ds, enumtrees.Lit{Label: enumtrees.Label(string(c))})
	}
	return ds
}

// nonDigits matches one position that is not a digit (needed because the
// pattern language has no negated classes: enumerate the alphabet).
func nonDigits(alpha []enumtrees.Label) enumtrees.Pattern {
	var ls []enumtrees.Pattern
	for _, l := range alpha {
		if l[0] < '0' || l[0] > '9' {
			ls = append(ls, enumtrees.Lit{Label: l})
		}
	}
	return enumtrees.AltP{Branches: ls}
}

func show(w io.Writer, e *enumtrees.WordQuerySet, q enumtrees.QueryID) {
	ids, labels := e.Word()
	pos := map[enumtrees.NodeID]int{}
	var b []byte
	for i, id := range ids {
		pos[id] = i
		b = append(b, labels[i][0])
	}
	fmt.Fprintf(w, "text: %q\n", string(b))
	n := 0
	for asg := range e.Snapshot().Query(q).Results() {
		spans := enumtrees.Spans(asg)
		var ps []int
		for _, id := range spans[0] {
			ps = append(ps, pos[id])
		}
		sort.Ints(ps)
		code := ""
		for _, p := range ps {
			code += string(labels[p])
		}
		fmt.Fprintf(w, "  code E%s at positions %v\n", code, ps)
		n++
	}
	if n == 0 {
		fmt.Fprintln(w, "  no error codes")
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	alpha := enumtrees.ByteAlphabet(text + "E0123456789")
	// Pattern: anywhere, "E" followed by a maximal captured run of
	// digits: the run ends at a non-digit or at the end of the word.
	pat := enumtrees.Cat(
		enumtrees.StarP{Inner: enumtrees.AnyLetter{}},
		enumtrees.Lit{Label: "E"},
		enumtrees.Capture{Var: 0, Inner: enumtrees.PlusP{Inner: enumtrees.AltP{Branches: digits()}}},
		enumtrees.OptP{Inner: enumtrees.Cat(nonDigits(alpha), enumtrees.StarP{Inner: enumtrees.AnyLetter{}})},
	)
	q, err := enumtrees.CompilePattern(pat, alpha)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compiled spanner: %d WVA states\n", q.NumStates)

	e, id, err := enumtrees.NewWord(enumtrees.TextLabels(text), q, enumtrees.Options{})
	if err != nil {
		return err
	}
	show(w, e, id)

	// Live edit 1: the operator fixes "E4" to "E42" (insert a digit).
	fmt.Fprintln(w, "\nedit: E4 -> E42")
	ids, labels := e.Word()
	for i := range labels {
		if labels[i] == "E" && i+1 < len(labels) && labels[i+1] == "4" {
			if _, err := e.Apply(enumtrees.Update{Op: enumtrees.OpInsertAfter, Node: ids[i+1], Label: "2"}); err != nil {
				return err
			}
			break
		}
	}
	show(w, e, id)

	// Live edit 2: a new error is appended.
	fmt.Fprintln(w, "\nedit: append \" E9\"")
	ids, _ = e.Word()
	last := ids[len(ids)-1]
	for _, c := range " E9" {
		var err error
		last, err = e.Apply(enumtrees.Update{Op: enumtrees.OpInsertAfter, Node: last, Label: enumtrees.Label(string(c))})
		if err != nil {
			return err
		}
	}
	show(w, e, id)

	// Live edit 3: the first error line is erased as ONE batched update —
	// four deletes, a single publication, box repair amortized.
	fmt.Fprintln(w, "\nedit: erase \"E17 \" (one batch)")
	ids, labels = e.Word()
	for i := 0; i+3 < len(labels); i++ {
		if labels[i] == "E" && labels[i+1] == "1" && labels[i+2] == "7" {
			var batch []enumtrees.Update
			for k := 0; k < 4; k++ {
				batch = append(batch, enumtrees.Update{Op: enumtrees.OpDelete, Node: ids[i+k]})
			}
			if _, _, err := e.ApplyBatch(batch); err != nil {
				return err
			}
			break
		}
	}
	show(w, e, id)
	return nil
}
