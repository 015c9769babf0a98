package experiments

import (
	"runtime"
	"strings"
	"time"
)

// Experiment is one entry of the registry: a table-only experiment, or
// a baseline whose machine-readable result is committed as
// BENCH_<Baseline>.json.
type Experiment struct {
	ID string
	// Baseline is the name of the committed baseline file
	// (BENCH_<Baseline>.json); empty for table-only experiments.
	Baseline string
	// Run runs the experiment at full or reduced (quick) sizes.
	Run func(quick bool) Result
	// schema returns a pointer to a zero value of the type Run records
	// in Result.Data; nil for table-only experiments.
	schema func() any
}

// Result is one run's output.
type Result struct {
	Tables []Table
	// Data is a pointer to the baseline value to marshal; nil for
	// table-only experiments.
	Data any
}

// Registry lists every experiment, in the order cmd/benchtables runs
// them: the paper's tables, then the recorded baselines.
var Registry = []Experiment{
	table("E1", E1Table1),
	table("E2", E2Preprocessing),
	table("E3", E3Delay),
	table("E4", E4Updates),
	table("E5", E5Combined),
	table("E6", E6Words),
	table("E7", E7MarkedAncestor),
	table("E8", E8JumpAblation),
	table("E9", E9CircuitSize),
	table("E10", E10MatMul),
	table("T1", func(bool) Table { return T1Homogenize() }),
	table("T2", func(bool) Table { return T2Translation() }),
	table("F1", func(bool) Table { return F1Order() }),
	record("C1", "concurrent", ConcurrentReaders, ConcurrentBaseline.Table),
	record("C2", "multiquery", MultiQuery, MultiQueryBaseline.Table, MultiQueryBaseline.DuplicateTable),
	record("D1", "directaccess", DirectAccess, DirectAccessBaseline.Table),
	record("C3", "parallel", Parallel, ParallelBaseline.Table),
	record("E1-par", "enum_parallel", EnumParallel, EnumParallelBaseline.Table),
	record("E-struct", "structural", Structural, StructuralBaseline.MoveTable, StructuralBaseline.BulkTable, StructuralBaseline.MixTable),
	record("E-delta", "delta", Delta, DeltaBaseline.Table, DeltaBaseline.ScaleTable),
	record("B1", "build", Build, BuildBaseline.Table),
}

// Lookup returns the registry entry with the given ID, ignoring case.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func table(id string, run func(quick bool) Table) Experiment {
	return Experiment{ID: id, Run: func(quick bool) Result {
		return Result{Tables: []Table{run(quick)}}
	}}
}

func record[T any](id, baseline string, run func(quick bool) T, tables ...func(T) Table) Experiment {
	return Experiment{
		ID:       id,
		Baseline: baseline,
		Run: func(quick bool) Result {
			b := run(quick)
			res := Result{Data: &b}
			for _, t := range tables {
				res.Tables = append(res.Tables, t(b))
			}
			return res
		},
		schema: func() any { return new(T) },
	}
}

// Env records the machine a baseline was measured on, so numbers are
// compared only within one environment.
type Env struct {
	CPUs       int `json:"cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
}

func currentEnv() Env {
	return Env{CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
}

// singleCore reports whether workers had to time-share one core.
func (e Env) singleCore() bool { return e.CPUs == 1 || e.GoMaxProcs == 1 }

// medianNs runs f reps times and returns the median wall time in ns.
func medianNs(reps int, f func()) float64 {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0))
	}
	return float64(median(ds).Nanoseconds())
}
