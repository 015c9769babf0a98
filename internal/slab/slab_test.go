package slab

import "testing"

type pair struct{ a, b int32 }

// TestCarveLayout checks that carved arrays are disjoint, sized and
// capped exactly, and consume whole words of the backing.
func TestCarveLayout(t *testing.T) {
	words := make([]uint64, Words[int32](3)+Words[pair](2)+Words[uint8](9))
	if len(words) != 2+2+2 {
		t.Fatalf("backing has %d words, want 6", len(words))
	}
	rest := words
	xs := Carve[int32](&rest, 3)
	ps := Carve[pair](&rest, 2)
	bs := Carve[uint8](&rest, 9)
	if len(rest) != 0 {
		t.Fatalf("%d words left over", len(rest))
	}
	if len(xs) != 3 || cap(xs) != 3 || len(ps) != 2 || cap(ps) != 2 || len(bs) != 9 || cap(bs) != 9 {
		t.Fatal("carved arrays have the wrong length or capacity")
	}
	for i := range xs {
		xs[i] = -1
	}
	for i := range ps {
		ps[i] = pair{int32(i), int32(i)}
	}
	for i := range bs {
		bs[i] = 0xff
	}
	if xs[2] != -1 || ps[0] != (pair{}) || ps[1] != (pair{1, 1}) {
		t.Fatal("carved arrays overlap")
	}
	if words[1] != 0x00000000ffffffff {
		t.Fatalf("padding after the int32s was written: %#x", words[1])
	}
	if Carve[int32](&rest, 0) != nil {
		t.Fatal("an empty carve should be nil")
	}
}
