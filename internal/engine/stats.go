package engine

import (
	"maps"

	"repro/internal/circuit"
)

// EngineStats is one immutable reading of the engine's cumulative work
// counters, taken at a publication. Engine.Stats returns the latest
// reading with a single atomic load, so it is safe to call concurrently
// with the parallel write path: the writer assembles a fresh EngineStats
// after the worker pool has finished each publication (the pool's
// WaitGroup orders every per-pipeline counter write before the stats
// store) and installs it through an atomic pointer, exactly like the
// MultiSnapshot.
//
// The shared-vs-per-query split is the cost model of the query-set
// architecture: PathCopies and Rebalances are the term work an edit pays
// ONCE regardless of the number of standing queries, while BoxesRebuilt
// is the per-query repair that fans out across the worker pool.
type EngineStats struct {
	// Version is the publication sequence number this reading was taken
	// at (MultiSnapshot.Version of the same publication).
	Version uint64
	// Queries is the number of standing queries at the publication.
	Queries int
	// Pipelines is the number of DISTINCT (box, index, counts) pipelines
	// behind the standing queries: the multi-query optimizer dedupes
	// registrations of content-equal automata onto one refcounted
	// pipeline, so Pipelines <= Queries, and the gap is repair work the
	// write path does not pay (per-batch cost scales with Pipelines).
	Pipelines int
	// PipelinesShared is the number of standing pipelines currently
	// serving more than one registered query (refcount > 1).
	PipelinesShared int
	// RegistrationsDeduped is the cumulative number of registrations the
	// optimizer served by joining a standing pipeline instead of
	// building one — each skipped an O(|T|) construction walk and all
	// future repair (monotone; unregistrations do not decrease it).
	RegistrationsDeduped int
	// Workers is the engine's worker-pool bound (SetWorkers; the pool
	// additionally never exceeds Queries).
	Workers int
	// PathCopies is the cumulative number of fresh term nodes the source
	// handed to the engine: the initial build plus every path-copied
	// trunk node and scapegoat rebuild since. Shared term work — flat in
	// the number of registered queries (experiment C2).
	PathCopies int
	// Rebalances is the source's cumulative scapegoat rebuild count
	// (shared term work, like PathCopies).
	Rebalances int
	// BoxesRebuilt is the cumulative number of circuit boxes built
	// across all pipelines, including registration walks and pipelines
	// unregistered since (monotone; the per-query update-work counter of
	// the amortization experiments, summed).
	BoxesRebuilt int
	// BoxesReused is the cumulative number of trunk boxes that
	// signature-pruned repair served by reusing the superseded node's
	// frozen (box, index, counts) unit instead of rebuilding it —
	// repair work saved, summed across all pipelines (monotone, like
	// BoxesRebuilt).
	BoxesReused int
	// QueryBoxesRebuilt maps each standing query to its pipeline's
	// cumulative box-construction count (queries deduped onto one shared
	// pipeline report the same counter).
	QueryBoxesRebuilt map[QueryID]int
	// ProgramCacheSize is the current entry count of the process-wide
	// compiled-transition-program cache (circuit.ProgramCacheSize): a
	// GLOBAL reading, shared by every engine in the process, bounded by
	// clock eviction under register/unregister churn.
	ProgramCacheSize int
	// AnswersEnumerated is the cumulative number of assignments the
	// engine's snapshots produced through the read APIs (bulk drains,
	// pages, ranked access, and the enumeration fallbacks behind them; a
	// work counter — a fallback that enumerates i answers to serve one
	// rank counts i, while a read copied out of a snapshot's answer
	// record counts only the answers it returns). Unlike the write-side
	// counters it advances between publications: Engine.Stats reads it
	// live.
	AnswersEnumerated int64
	// ParallelDrains is the cumulative number of ParallelAll / Chunks
	// calls that fanned out across more than one worker (read live,
	// like AnswersEnumerated).
	ParallelDrains int64
	// DeltasEmitted is the cumulative number of answer deltas offered to
	// Subscribe consumers (one per subscriber per publication; the
	// initial resync seeding a subscription is not counted).
	DeltasEmitted int64
	// AnswersAdded / AnswersRemoved accumulate the sizes of the computed
	// per-pipeline answer diffs (counted once per distinct pipeline per
	// publication, regardless of the number of subscribers sharing it):
	// the work the delta stream SHIPS, as opposed to the answer-set
	// sizes a full re-read would pay.
	AnswersAdded   int64
	AnswersRemoved int64
	// DeltasCoalesced is the cumulative number of offers that merged
	// into a still-undelivered pending delta because the consumer fell
	// behind (each surfaces to that consumer as Delta.Coalesced).
	DeltasCoalesced int64
	// KeyedDiffs is the cumulative number of per-pipeline answer diffs
	// that took the keyed fallback of ambiguous automata (counted once
	// per distinct pipeline per publication, like AnswersAdded; a
	// publication that left the pipeline's root untouched takes no
	// diff). KeyedDiffAnswers is the number of answers those diffs
	// enumerated: the new version's answers, plus the old version's when
	// no earlier diff left a record of them (the first publication after
	// Subscribe) — so once a record exists, one drain per publication.
	KeyedDiffs       int64
	KeyedDiffAnswers int64
}

// Stats returns the engine's latest published work counters: one atomic
// load plus a map clone, no locks, safe from any goroutine at any time
// (in particular concurrently with the parallel writer). The returned
// value is the caller's own copy.
func (e *Engine) Stats() EngineStats {
	st := *e.stats.Load()
	st.QueryBoxesRebuilt = maps.Clone(st.QueryBoxesRebuilt)
	// Read-path counters advance between publications (readers never
	// publish); overlay the live values so Stats reflects reads that
	// happened since the last write. The program cache is process-wide
	// and moves with every engine's registrations, so it is read live
	// too.
	st.AnswersEnumerated = e.reads.answersEnumerated.Load()
	st.ParallelDrains = e.reads.parallelDrains.Load()
	st.ProgramCacheSize = circuit.ProgramCacheSize()
	return st
}

// publishStats assembles and installs the EngineStats reading for the
// current publication. Callers hold e.mu, after any worker pool of the
// publication has been waited for.
func (e *Engine) publishStats() {
	st := &EngineStats{
		Version:              e.version,
		Queries:              len(e.order),
		Workers:              e.workers,
		PathCopies:           e.pathCopies,
		Rebalances:           e.src.Rebalances(),
		BoxesRebuilt:         e.boxesReleased,
		BoxesReused:          e.reusedReleased,
		RegistrationsDeduped: e.dedupedRegs,
		QueryBoxesRebuilt:    make(map[QueryID]int, len(e.pipes)),
		ProgramCacheSize:     circuit.ProgramCacheSize(),
		AnswersEnumerated:    e.reads.answersEnumerated.Load(),
		ParallelDrains:       e.reads.parallelDrains.Load(),
		DeltasEmitted:        e.deltasEmitted,
		AnswersAdded:         e.answersAdded,
		AnswersRemoved:       e.answersRemoved,
		DeltasCoalesced:      e.deltasCoalesced,
		KeyedDiffs:           e.keyedDiffs,
		KeyedDiffAnswers:     e.keyedDiffAnswers,
	}
	// Repair-work counters sum over DISTINCT pipelines (a shared
	// pipeline's work is paid once, so it is counted once); the
	// per-query map still carries one entry per QueryID.
	seen := make(map[*pipeline]bool, len(e.pipes))
	for id, p := range e.pipes {
		st.QueryBoxesRebuilt[id] = p.boxesRebuilt
		if seen[p] {
			continue
		}
		seen[p] = true
		st.Pipelines++
		if p.refs > 1 {
			st.PipelinesShared++
		}
		st.BoxesRebuilt += p.boxesRebuilt
		st.BoxesReused += p.boxesReused
	}
	e.stats.Store(st)
}
