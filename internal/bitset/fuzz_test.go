package bitset

import "testing"

// Differential fuzz targets: every kernel against a bit-at-a-time
// reference. The f.Add seeds plus the committed corpus under
// testdata/fuzz run as ordinary tests on every `go test`; `go test
// -fuzz` explores beyond them. Shapes are derived from fuzzer bytes so
// odd strides, tail words and empty operands all fall out of the input
// space.

// fuzzWords deterministically expands data into n words, cycling
// through data so short inputs still populate every word.
func fuzzWords(data []byte, n int) []uint64 {
	out := make([]uint64, n)
	if len(data) == 0 {
		return out
	}
	for i := 0; i < n*8; i++ {
		out[i/8] |= uint64(data[i%len(data)]) << uint(8*(i%8))
	}
	return out
}

// fuzzMatrix builds a rows×cols matrix from fuzzer bytes, restoring the
// padding-bits-zero invariant that NewMatrix/Set maintain.
func fuzzMatrix(data []byte, rows, cols int) Matrix {
	stride := (cols + 63) / 64
	m := MatrixOn(fuzzWords(data, rows*stride), rows, cols)
	if extra := cols & 63; extra != 0 {
		mask := uint64(1)<<uint(extra) - 1
		for i := 0; i < rows; i++ {
			m.bits[(i+1)*stride-1] &= mask
		}
	}
	return m
}

func FuzzOrWords(f *testing.F) {
	f.Add([]byte{0xff}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(4))
	f.Add([]byte{0xaa, 0x55, 0, 0, 0x80}, uint8(17))
	f.Add([]byte{}, uint8(65))
	f.Add([]byte{0x01, 0x80, 0xfe}, uint8(100))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		words := int(n)
		dst := fuzzWords(data, words)
		var src []uint64
		if len(data) > 0 {
			src = fuzzWords(data[len(data)/2:], words)
		} else {
			src = make([]uint64, words)
		}
		checkWordKernels(t, dst, src)
	})
}

func FuzzComposeInto(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, uint8(1), uint8(1), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4), uint8(70), uint8(65))
	f.Add([]byte{0xaa, 0x55, 0x0f}, uint8(9), uint8(33), uint8(200))
	f.Add([]byte{0x80}, uint8(16), uint8(64), uint8(129))
	f.Fuzz(func(t *testing.T, data []byte, rb, mb, cb uint8) {
		rows := int(rb%24) + 1
		mid := int(mb) + 1
		cols := int(cb) + 1
		a := fuzzMatrix(data, rows, mid)
		var b Matrix
		if len(data) > 0 {
			b = fuzzMatrix(data[len(data)/3:], mid, cols)
		} else {
			b = NewMatrix(mid, cols)
		}

		want := ComposeNaive(a, b)
		if got := Compose(a, b); !got.Equal(want) {
			t.Fatalf("Compose %dx%dx%d differs from naive", rows, mid, cols)
		}

		// Batch form must agree with the single-pair form.
		dst := []Matrix{NewMatrix(rows, cols)}
		ComposeManyInto(dst, []Matrix{a}, b)
		if !dst[0].Equal(want) {
			t.Fatalf("ComposeManyInto %dx%dx%d differs from naive", rows, mid, cols)
		}
	})
}

func FuzzCount(f *testing.F) {
	f.Add([]byte{0xff, 0xff}, uint8(3), uint8(64))
	f.Add([]byte{1}, uint8(20), uint8(130))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb uint8) {
		rows := int(rb%32) + 1
		cols := int(cb) + 1
		m := fuzzMatrix(data, rows, cols)

		want := 0
		for i := 0; i < rows; i++ {
			row := m.Row(i)
			for j := 0; j < cols; j++ {
				if row.Has(j) {
					want++
				}
			}
		}
		if got := m.Count(); got != want {
			t.Fatalf("Count %d, per-bit %d", got, want)
		}
		if m.Empty() != (want == 0) {
			t.Fatalf("Empty %v with %d bits set", m.Empty(), want)
		}
	})
}

func FuzzNonEmptyRows(f *testing.F) {
	f.Add([]byte{0xf0}, uint8(7), uint8(9))
	f.Add([]byte{0, 0, 1}, uint8(40), uint8(200))
	f.Add([]byte{0xff}, uint8(64), uint8(65))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb uint8) {
		rows := int(rb%96) + 1
		cols := int(cb) + 1
		m := fuzzMatrix(data, rows, cols)

		want := NewSet(rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.Get(i, j) {
					want.Add(i)
					break
				}
			}
		}
		if got := m.NonEmptyRowsInto(NewSet(rows)); !got.Equal(want) {
			t.Fatalf("NonEmptyRows %v, want %v", got, want)
		}

		// RowsIntersectingInto against the full-universe set must agree
		// with NonEmptyRows.
		g := NewSet(cols)
		for j := 0; j < cols; j++ {
			g.Add(j)
		}
		if got := m.RowsIntersectingInto(g, NewSet(rows)); !got.Equal(want) {
			t.Fatalf("RowsIntersectingInto(universe) %v, want %v", got, want)
		}
	})
}
