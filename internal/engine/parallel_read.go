package engine

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tree"
)

// This file is the rank-partitioned parallel bulk-enumeration layer:
// split [0, Count()) into per-worker rank ranges and let each worker
// serve its range from the one ranked stream, Snapshot.fillFrom, with
// its own pooled goroutine-confined cursor. On direct-access snapshots
// the stream is STATELESS — a count-guided descent reaches any rank
// with no shared cursor — so a range of m answers costs one
// O(log|T|·poly|Q|) seek plus m·delay and W workers add only W seeks to
// the sequential drain. On snapshots that carry the keyed delta diff's
// answer record a range is a copy out of the record, whatever its
// offset. On other ambiguous snapshots each worker enumerates from rank
// 0 and skips to its range without materializing what it skips
// (snapshots are immutable, so concurrent iterations are free), which
// still splits the materialization W ways. ParallelAll is the
// scatter into a preallocated slice; Chunks is the order-preserving
// streaming variant (scatter over chunk ranks, bounded-channel gather
// with a reorder buffer).

// readCounters aggregates read-path work across every snapshot an
// engine publishes. Plain atomics: bulk drains bump them once per
// call, not per answer, so contention is negligible.
type readCounters struct {
	// answersEnumerated counts answers produced by the snapshot read
	// APIs — bulk drains, pages, ranked access, and the counting drain
	// of ambiguous snapshots. It is a work counter, not a delivery
	// counter: a page of an ambiguous snapshot without an answer record
	// that skips i answers to serve one counts i+1, while a page copied
	// out of a record counts only the answers it returns.
	answersEnumerated atomic.Int64
	// parallelDrains counts ParallelAll / Chunks invocations that
	// actually fanned out (more than one worker engaged).
	parallelDrains atomic.Int64
}

// noteAnswers records n produced answers; snapshots not published by an
// engine (zero values in tests) have no counter and skip.
func (s *Snapshot) noteAnswers(n int) {
	if s.reads != nil && n > 0 {
		s.reads.answersEnumerated.Add(int64(n))
	}
}

// noteParallelDrain records one fanned-out bulk drain.
func (s *Snapshot) noteParallelDrain() {
	if s.reads != nil {
		s.reads.parallelDrains.Add(1)
	}
}

// ParallelAll materializes every result in Results' order across the
// given number of workers (<= 0 means GOMAXPROCS): worker k serves the
// rank range [k·n/W, (k+1)·n/W) from the ranked stream (fillFrom) into
// its disjoint region of one preallocated slice — no locks, no
// channels. On direct-access snapshots that is wall-clock
// O(log|T|·poly|Q|) + n/W·delay on W free cores. The result is exactly
// All(): same answers, same order.
func (s *Snapshot) ParallelAll(workers int) []tree.Assignment {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := s.Count()
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		return s.All()
	}
	out := make([]tree.Assignment, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := k*n/workers, (k+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(s.fillFrom(lo, hi-lo, out[lo:lo:hi])) != hi-lo {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	s.noteParallelDrain()
	if failed.Load() {
		// A range ran short of the count (a count inconsistency
		// surfaced mid-drain): one sequential enumeration is the
		// correct recovery.
		return s.All()
	}
	return out
}

// chunkRes is one computed chunk in flight from a worker to the
// reassembling consumer.
type chunkRes struct {
	idx  int
	data []tree.Assignment
}

// Chunks streams Results in order as []tree.Assignment chunks of the
// given size (<= 0 means 512), computed by the given number of workers
// (<= 0 means GOMAXPROCS). It is the streaming complement of
// ParallelAll: chunks are produced out of order by the workers —
// direct-access snapshots claim chunk indices dynamically and serve
// each by one seek to its first rank plus chunkSize enumeration steps,
// record-bearing snapshots (see DirectAccess) claim them the same way
// and copy each out of the answer record; others shard chunks over
// independent rope drains (each worker materializes only its own
// chunks) — and reassembled in order by a bounded gather: a channel of
// capacity ~2W plus a reorder buffer, so an abandoned iteration stops
// the workers before it returns, and total buffering stays
// O(W·chunkSize) no matter how large the answer set is. Concatenating
// the chunks yields exactly All().
func (s *Snapshot) Chunks(workers, chunkSize int) iter.Seq[[]tree.Assignment] {
	return func(yield func([]tree.Assignment) bool) {
		if chunkSize <= 0 {
			chunkSize = 512
		}
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		seek := s.seekable()
		n := s.Count()
		if n == 0 {
			return
		}
		chunks := (n-1)/chunkSize + 1 // n + chunkSize - 1 overflows a saturated Count
		if workers > chunks {
			workers = chunks
		}
		if workers == 1 {
			// One worker: no gather needed, serve chunks in order off the
			// consumer's own goroutine.
			s.sequentialChunks(chunkSize, yield)
			return
		}

		out := make(chan chunkRes, 2*workers)
		done := make(chan struct{})
		var next atomic.Int64 // dynamic chunk claiming (seekable path)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				if seek {
					s.chunkWorkerDirect(n, chunkSize, chunks, &next, out, done)
				} else {
					s.chunkWorkerSharded(n, chunkSize, chunks, shard, workers, out, done)
				}
			}(k)
		}
		go func() { wg.Wait(); close(out) }()
		// An abandoned iteration returns only once its workers have
		// stopped, so no work and no counter update outlives it.
		defer func() { close(done); wg.Wait() }()

		s.noteParallelDrain()
		pending := make(map[int][]tree.Assignment, workers)
		nextYield := 0
		for r := range out {
			pending[r.idx] = r.data
			for {
				data, ok := pending[nextYield]
				if !ok {
					break
				}
				delete(pending, nextYield)
				nextYield++
				if !yield(data) {
					return
				}
			}
		}
	}
}

// sequentialChunks serves the single-worker (or single-chunk) case of
// Chunks with no goroutines: one in-order drain of Results, cut into
// chunks.
func (s *Snapshot) sequentialChunks(chunkSize int, yield func([]tree.Assignment) bool) {
	data := make([]tree.Assignment, 0, chunkSize)
	for a := range s.Results() {
		data = append(data, a)
		if len(data) == chunkSize {
			if !yield(data) {
				return
			}
			data = make([]tree.Assignment, 0, chunkSize)
		}
	}
	if len(data) > 0 {
		yield(data)
	}
}

// chunkWorkerDirect is one scatter worker of the direct-access and
// record-bearing Chunks path: claim the next unserved chunk index,
// materialize its rank range through fillFrom (one seek plus streaming,
// or one copy out of the record), hand it to the gather channel. Dynamic
// claiming load-balances automatically when chunks cost unevenly.
func (s *Snapshot) chunkWorkerDirect(n, chunkSize, chunks int, next *atomic.Int64, out chan<- chunkRes, done <-chan struct{}) {
	for {
		c := int(next.Add(1)) - 1
		if c >= chunks {
			return
		}
		lo := c * chunkSize
		hi := min(lo+chunkSize, n)
		data := s.fillFrom(lo, hi-lo, make([]tree.Assignment, 0, hi-lo))
		if len(data) != hi-lo {
			return // count inconsistency; chunk withheld, stream ends short
		}
		select {
		case out <- chunkRes{idx: c, data: data}:
		case <-done:
			return
		}
	}
}

// chunkWorkerSharded is one scatter worker of the fallback Chunks path,
// for ambiguous snapshots without an answer record: an independent rope
// drain that materializes only the chunks
// preassigned to this shard (chunk index ≡ shard mod workers). Chunk
// indices leave each worker in increasing order, so the consumer's
// reorder buffer stays bounded by the channel capacity plus one chunk
// per worker.
func (s *Snapshot) chunkWorkerSharded(n, chunkSize, chunks, shard, workers int, out chan<- chunkRes, done <-chan struct{}) {
	var data []tree.Assignment
	j := 0
	for rope := range s.Ropes() {
		if j >= n {
			return // snapshot invariant violated; stay in bounds
		}
		c := j / chunkSize
		if c%workers == shard {
			if data == nil {
				lo := c * chunkSize
				hi := min(lo+chunkSize, n)
				data = make([]tree.Assignment, 0, hi-lo)
			}
			data = append(data, materialize(rope))
			if cap(data) == len(data) {
				s.noteAnswers(len(data))
				select {
				case out <- chunkRes{idx: c, data: data}:
				case <-done:
					return
				}
				data = nil
			}
		}
		j++
	}
}
