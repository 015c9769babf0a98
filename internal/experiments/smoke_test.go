package experiments

import "testing"

func TestSmokeQuickTables(t *testing.T) {
	for _, id := range []string{"E8", "E10", "T1", "T2", "F1"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s: not in the registry", id)
		}
		for _, tb := range e.Run(true).Tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: table %s is empty", id, tb.ID)
			}
		}
	}
}
