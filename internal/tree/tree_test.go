package tree

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestVarSet(t *testing.T) {
	s := NewVarSet(0, 3, 5)
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	s = s.Add(1).Remove(3)
	want := []Var{0, 1, 5}
	got := s.Vars()
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if s.Empty() || !VarSet(0).Empty() {
		t.Fatal("Empty wrong")
	}
	if s.String() != "{X0, X1, X5}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSubsetsOf(t *testing.T) {
	u := NewVarSet(1, 4)
	var got []VarSet
	SubsetsOf(u, func(s VarSet) { got = append(got, s) })
	if len(got) != 4 {
		t.Fatalf("got %d subsets, want 4", len(got))
	}
	seen := map[VarSet]bool{}
	for _, s := range got {
		if s&^u != 0 {
			t.Fatalf("subset %v not within universe %v", s, u)
		}
		if seen[s] {
			t.Fatalf("duplicate subset %v", s)
		}
		seen[s] = true
	}
	// Empty universe yields exactly the empty set.
	n := 0
	SubsetsOf(0, func(s VarSet) {
		if !s.Empty() {
			t.Fatal("nonempty subset of empty universe")
		}
		n++
	})
	if n != 1 {
		t.Fatalf("empty universe yielded %d subsets", n)
	}
}

func TestAssignmentNormalizeAndKey(t *testing.T) {
	a := Assignment{{1, 5}, {0, 5}, {1, 5}, {0, 2}}
	a = a.Normalize()
	want := Assignment{{0, 2}, {0, 5}, {1, 5}}
	if len(a) != len(want) {
		t.Fatalf("Normalize = %v", a)
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", a, want)
		}
	}
	if a.Key() != "2:0;5:0;5:1;" {
		t.Fatalf("Key = %q", a.Key())
	}
}

// TestAssignmentKeyFormat pins Key's exact bytes, "<node>:<var>;" per
// singleton: delta streams are ordered by them.
func TestAssignmentKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		a    Assignment
		want string
	}{
		{Assignment{}, ""},
		{nil, ""},
		{Assignment{{Var: 0, Node: 0}}, "0:0;"},
		{Assignment{{Var: 12, Node: 3}}, "3:12;"},
		{Assignment{{Var: 255, Node: 1234567890}}, "1234567890:255;"},
		{Assignment{{Var: 1, Node: 0}, {Var: 10, Node: 0}, {Var: 2, Node: 7}, {Var: 0, Node: 41}}, "0:1;0:10;7:2;41:0;"},
	} {
		if got := tc.a.Key(); got != tc.want {
			t.Errorf("%v.Key() = %q, want %q", tc.a, got, tc.want)
		}
	}
}

// TestSortByKey checks that SortByKey orders by Key, with the byte order
// of the keys (so "10:0;" sorts before "2:0;").
func TestSortByKey(t *testing.T) {
	as := []Assignment{{{Var: 0, Node: 2}}, {}, {{Var: 0, Node: 10}}, {{Var: 1, Node: 2}}, {{Var: 0, Node: 1}, {Var: 0, Node: 3}}}
	SortByKey(as)
	var got []string
	for _, a := range as {
		got = append(got, a.Key())
	}
	want := []string{"", "10:0;", "1:0;3:0;", "2:0;", "2:1;"}
	if !slices.Equal(got, want) {
		t.Fatalf("SortByKey order %q, want %q", got, want)
	}
}

// TestCompareKeysMatchesKeyBytes checks CompareKeys against the byte
// order of the built keys, on assignments whose node and variable
// numbers share leading digits at different lengths (1, 12, 120, ...),
// the case where the key order departs from numeric order.
func TestCompareKeysMatchesKeyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nodes := []NodeID{0, 1, 2, 9, 10, 12, 19, 100, 120, 121, 1000, 1201, 99999, 1 << 62, -1, -12, -3}
	vars := []Var{0, 1, 2, 10, 12, 25, 100, 120, 255}
	random := func() Assignment {
		a := make(Assignment, rng.Intn(4))
		for i := range a {
			a[i] = Singleton{Var: vars[rng.Intn(len(vars))], Node: nodes[rng.Intn(len(nodes))]}
		}
		return a
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for range 20000 {
		a, b := random(), random()
		if rng.Intn(4) == 0 { // a shared prefix
			b = append(slices.Clone(a[:rng.Intn(len(a)+1)]), b...)
		}
		if got, want := sign(CompareKeys(a, b)), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("CompareKeys(%q, %q) = %d, want %d", a.Key(), b.Key(), got, want)
		}
	}
}

// TestKeyPrefixOrdersLikeCompareKeys checks that KeyPrefix never
// contradicts CompareKeys and that, for node ids below 10^18, it ties
// exactly when the first nodes are equal: on digit-count boundaries
// (0, 9, 10, 99, 100), ids near 10^17 and 10^18, ids beyond, negative
// ids, the empty assignment, and random ids.
func TestKeyPrefixOrdersLikeCompareKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const e17, e18 = NodeID(1e17), NodeID(1e18)
	nodes := []NodeID{0, 1, 9, 10, 11, 19, 90, 99, 100, 101, 109, 110, 999, 1000,
		e17 - 1, e17, e17 + 1, 2 * e17, e18 - 1, e18, e18 + 7, 1 << 62, -1, -12}
	for range 200 {
		nodes = append(nodes, NodeID(rng.Int63n(int64(e18))), NodeID(rng.Int63n(1e6)), NodeID(rng.Int63()))
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	assignments := []Assignment{{}}
	for _, n := range nodes {
		assignments = append(assignments,
			Assignment{{Var: Var(rng.Intn(3)), Node: n}},
			Assignment{{Var: 0, Node: n}, {Var: 1, Node: n + 1}})
	}
	for _, a := range assignments {
		for _, b := range assignments {
			pa, pb := a.KeyPrefix(), b.KeyPrefix()
			c := sign(CompareKeys(a, b))
			if pa != pb && c != sign(cmp.Compare(pa, pb)) {
				t.Fatalf("KeyPrefix %d vs %d orders %q against %q the other way from CompareKeys", pa, pb, a.Key(), b.Key())
			}
			if len(a) > 0 && len(b) > 0 && a[0].Node >= 0 && a[0].Node < e18 && b[0].Node >= 0 && b[0].Node < e18 {
				if (pa == pb) != (a[0].Node == b[0].Node) {
					t.Fatalf("KeyPrefix of %q and %q: %d, %d", a.Key(), b.Key(), pa, pb)
				}
			}
		}
	}
}

// TestDecimalLen checks the digit count CompareKeys relies on at every
// power of ten and of two, against strconv.
func TestDecimalLen(t *testing.T) {
	check := func(v uint64) {
		if got, want := decimalLen(v), len(strconv.FormatUint(v, 10)); got != want {
			t.Fatalf("decimalLen(%d) = %d, want %d", v, got, want)
		}
	}
	for _, p := range pow10 {
		for _, d := range []uint64{0, 1, 2} {
			check(p - d)
			check(p + d)
		}
	}
	for b := range 64 {
		check(1 << b)
		check(1<<b - 1)
	}
	check(^uint64(0))
}

func TestValuationRoundTrip(t *testing.T) {
	v := Valuation{2: NewVarSet(0, 1), 7: NewVarSet(3)}
	a := v.Assignment()
	if len(a) != 3 {
		t.Fatalf("Assignment = %v", a)
	}
	back := AssignmentValuation(a)
	if len(back) != 2 || back[2] != v[2] || back[7] != v[7] {
		t.Fatalf("round trip failed: %v", back)
	}
}

func TestUnrankedBuildAndEdits(t *testing.T) {
	tr := NewUnranked("r")
	if tr.Size() != 1 || tr.Root.Label != "r" {
		t.Fatal("NewUnranked wrong")
	}
	b, err := tr.InsertFirstChild(tr.Root.ID, "b")
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.InsertFirstChild(tr.Root.ID, "a")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr.InsertRightSibling(b.ID, "c")
	if err != nil {
		t.Fatal(err)
	}
	// Order should now be a, b, c.
	if got := tr.String(); got != "(r (a) (b) (c))" {
		t.Fatalf("tree = %s", got)
	}
	if tr.Size() != 4 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if err := tr.Relabel(a.ID, "z"); err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "(r (z) (b) (c))" {
		t.Fatalf("after relabel: %s", got)
	}
	if err := tr.Delete(b.ID); err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "(r (z) (c))" {
		t.Fatalf("after delete: %s", got)
	}
	if tr.Node(b.ID) != nil {
		t.Fatal("deleted node still addressable")
	}
	// Delete first and last children too.
	if err := tr.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(c.ID); err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "(r)" {
		t.Fatalf("after deletes: %s", got)
	}
}

func TestUnrankedEditErrors(t *testing.T) {
	tr := NewUnranked("r")
	c, _ := tr.InsertFirstChild(tr.Root.ID, "c")
	if err := tr.Delete(tr.Root.ID); err == nil {
		t.Fatal("deleting internal root should fail")
	}
	if _, err := tr.InsertRightSibling(tr.Root.ID, "x"); err == nil {
		t.Fatal("insertR on root should fail")
	}
	if err := tr.Delete(NodeID(99)); err == nil {
		t.Fatal("deleting missing node should fail")
	}
	if err := tr.Relabel(NodeID(99), "x"); err == nil {
		t.Fatal("relabeling missing node should fail")
	}
	if _, err := tr.InsertFirstChild(NodeID(99), "x"); err == nil {
		t.Fatal("insert under missing node should fail")
	}
	if _, err := tr.InsertRightSibling(NodeID(99), "x"); err == nil {
		t.Fatal("insertR of missing node should fail")
	}
	_ = tr.Delete(c.ID)
	if err := tr.Delete(tr.Root.ID); err == nil {
		t.Fatal("deleting the root should fail even when it is a leaf")
	}
}

func TestUnrankedParsePrintRoundTrip(t *testing.T) {
	cases := []string{
		"(a)",
		"(a (b))",
		"(a (b) (c (d) (e)) (f))",
		"(root (x (y (z))))",
	}
	for _, s := range cases {
		tr, err := ParseUnranked(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if got := tr.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
	for _, bad := range []string{"", "a", "(a", "(a))", "()", "(a)x"} {
		if _, err := ParseUnranked(bad); err == nil {
			t.Fatalf("parse %q should fail", bad)
		}
	}
}

func TestUnrankedHeightAndNodes(t *testing.T) {
	tr, _ := ParseUnranked("(a (b (c) (d (e))) (f))")
	if tr.Height() != 3 {
		t.Fatalf("Height = %d", tr.Height())
	}
	nodes := tr.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("Nodes = %d", len(nodes))
	}
	labels := ""
	for _, n := range nodes {
		labels += string(n.Label)
	}
	if labels != "abcdef" {
		t.Fatalf("preorder = %s", labels)
	}
}

func TestUnrankedClone(t *testing.T) {
	tr, _ := ParseUnranked("(a (b) (c (d)))")
	cl := tr.Clone()
	if cl.String() != tr.String() {
		t.Fatal("clone differs")
	}
	// IDs preserved.
	for _, n := range tr.Nodes() {
		cn := cl.Node(n.ID)
		if cn == nil || cn.Label != n.Label {
			t.Fatalf("clone lost node %d", n.ID)
		}
	}
	// Mutating the clone must not touch the original.
	var leaf *UNode
	for _, n := range cl.Nodes() {
		if n.IsLeaf() {
			leaf = n
		}
	}
	_ = cl.Delete(leaf.ID)
	if tr.Node(leaf.ID) == nil {
		t.Fatal("clone shares nodes with original")
	}
}

func TestBinaryBuildAndValidate(t *testing.T) {
	b := NewBinary()
	n := b.Inner("r", b.Leaf("a"), b.Inner("s", b.Leaf("b"), b.Leaf("c")))
	b.SetRoot(n)
	if b.Size() != 5 {
		t.Fatalf("Size = %d", b.Size())
	}
	if b.Height() != 2 {
		t.Fatalf("Height = %d", b.Height())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	leaves := b.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("Leaves = %d", len(leaves))
	}
	order := ""
	for _, l := range leaves {
		order += string(l.Label)
	}
	if order != "abc" {
		t.Fatalf("leaf order = %s", order)
	}
	if got := b.String(); got != "(r (a) (s (b) (c)))" {
		t.Fatalf("String = %s", got)
	}
}

func TestBinaryParse(t *testing.T) {
	b, err := ParseBinary("(r (a) (s (b) (c)))")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != "(r (a) (s (b) (c)))" {
		t.Fatalf("round trip = %s", b.String())
	}
	if _, err := ParseBinary("(r (a))"); err == nil {
		t.Fatal("unary node should fail")
	}
	if _, err := ParseBinary("(r (a) (b) (c))"); err == nil {
		t.Fatal("ternary node should fail")
	}
}

func TestBinaryInnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil child")
		}
	}()
	b := NewBinary()
	b.Inner("x", b.Leaf("a"), nil)
}

// randomUnranked builds a random tree with n nodes by attaching each new
// node under a uniformly random existing node.
func randomUnranked(rng *rand.Rand, n int) *Unranked {
	tr := NewUnranked("r")
	ids := []NodeID{tr.Root.ID}
	for i := 1; i < n; i++ {
		parent := ids[rng.Intn(len(ids))]
		var nn *UNode
		if rng.Intn(2) == 0 {
			nn, _ = tr.InsertFirstChild(parent, Label([]string{"a", "b", "c"}[rng.Intn(3)]))
		} else {
			p := tr.Node(parent)
			if p.Parent == nil {
				nn, _ = tr.InsertFirstChild(parent, "a")
			} else {
				nn, _ = tr.InsertRightSibling(parent, "b")
			}
		}
		ids = append(ids, nn.ID)
	}
	return tr
}

func TestQuickUnrankedParseRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%40) + 1
		tr := randomUnranked(rng, n)
		if tr.Size() != n {
			return false
		}
		back, err := ParseUnranked(tr.String())
		if err != nil {
			return false
		}
		return back.String() == tr.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEditsPreserveLinkedListInvariants(t *testing.T) {
	check := func(tr *Unranked) bool {
		for _, n := range tr.Nodes() {
			// first/last consistency
			if (n.FirstChild == nil) != (n.LastChild == nil) {
				return false
			}
			for c := n.FirstChild; c != nil; c = c.NextSib {
				if c.Parent != n {
					return false
				}
				if c.NextSib != nil && c.NextSib.PrevSib != c {
					return false
				}
				if c.NextSib == nil && n.LastChild != c {
					return false
				}
				if c.PrevSib == nil && n.FirstChild != c {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomUnranked(rng, 20)
		// Random edit storm.
		for i := 0; i < 50; i++ {
			nodes := tr.Nodes()
			n := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(4) {
			case 0:
				_ = tr.Relabel(n.ID, "x")
			case 1:
				_, _ = tr.InsertFirstChild(n.ID, "y")
			case 2:
				if n.Parent != nil {
					_, _ = tr.InsertRightSibling(n.ID, "z")
				}
			case 3:
				if n.IsLeaf() && n.Parent != nil {
					_ = tr.Delete(n.ID)
				}
			}
			if !check(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
