package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// decodeBaseline reads a baseline written by -json.
func decodeBaseline(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("invalid JSON baseline %s: %v", path, err)
	}
}

// TestTablesSubset runs benchtables over -only selections: each run
// prints exactly the selected tables and, under -json, writes exactly
// the selected baselines. An unknown ID, or -buildref without B1, fails
// the run instead of silently measuring nothing.
func TestTablesSubset(t *testing.T) {
	for _, tc := range []struct {
		name    string
		only    string
		extra   []string
		wantErr bool
		tables  []string // table titles that must be printed
		absent  []string // table headings that must not be
		files   []string // the files -json must write, sorted
		check   func(t *testing.T, dir string)
	}{
		{name: "unknown", only: "E99", wantErr: true},
		{name: "buildref without B1", only: "E10", extra: []string{"-buildref", "x.json"}, wantErr: true},
		{
			name:   "E10",
			only:   "e10",
			tables: []string{"### E10 —"},
			absent: []string{"### E1 —", "### C1 —"},
		},
		{
			name:   "concurrent",
			only:   "C1",
			tables: []string{"Concurrent snapshot readers"},
			files:  []string{"BENCH_concurrent.json"},
			check: func(t *testing.T, dir string) {
				var base experiments.ConcurrentBaseline
				decodeBaseline(t, filepath.Join(dir, "BENCH_concurrent.json"), &base)
				if base.CPUs <= 0 || base.GoMaxProcs <= 0 {
					t.Fatalf("environment missing: %+v", base.Env)
				}
				if len(base.Points) != 3 {
					t.Fatalf("baseline has %d points, want 3 (1/4/16 readers)", len(base.Points))
				}
				for i, readers := range []int{1, 4, 16} {
					p := base.Points[i]
					if p.Readers != readers {
						t.Fatalf("point %d: readers = %d, want %d", i, p.Readers, readers)
					}
					if p.Results <= 0 || p.ResultsPerSecond <= 0 {
						t.Fatalf("point %d: no throughput measured: %+v", i, p)
					}
					if p.Updates <= 0 {
						t.Fatalf("point %d: writer applied no updates: %+v", i, p)
					}
				}
			},
		},
		{
			name:   "parallel",
			only:   "E10,C3",
			tables: []string{"### E10 —", "Parallel write path"},
			files:  []string{"BENCH_parallel.json"},
			check: func(t *testing.T, dir string) {
				var base experiments.ParallelBaseline
				decodeBaseline(t, filepath.Join(dir, "BENCH_parallel.json"), &base)
				if len(base.Points) != 9 {
					t.Fatalf("baseline has %d points, want 9 (k in {1,4,16} x workers in {1,4,8})", len(base.Points))
				}
				if base.CPUs <= 0 || base.GoMaxProcs <= 0 || len(base.QuerySpecs) != 16 {
					t.Fatalf("environment/query metadata missing: %+v", base)
				}
				i := 0
				for _, k := range []int{1, 4, 16} {
					for _, w := range []int{1, 4, 8} {
						p := base.Points[i]
						i++
						if p.Queries != k || p.Workers != w {
							t.Fatalf("point %d is (k=%d, w=%d), want (k=%d, w=%d)", i-1, p.Queries, p.Workers, k, w)
						}
						if p.MicrosPerEdit <= 0 || p.Speedup <= 0 {
							t.Fatalf("point %d: no latency measured: %+v", i-1, p)
						}
						if w == 1 && p.Speedup != 1 {
							t.Fatalf("point %d: serial speedup = %v, want 1", i-1, p.Speedup)
						}
					}
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			err := run(append([]string{"-quick", "-only", tc.only, "-json", dir}, tc.extra...), &stdout, &stderr)
			if tc.wantErr {
				if err == nil {
					t.Fatal("run succeeded, want an error")
				}
				return
			}
			if err != nil {
				t.Fatalf("%v\nstderr: %s", err, stderr.String())
			}
			for _, s := range tc.tables {
				if !strings.Contains(stdout.String(), s) {
					t.Fatalf("missing table %q:\n%s", s, stdout.String())
				}
			}
			for _, s := range tc.absent {
				if strings.Contains(stdout.String(), s) {
					t.Fatalf("-only %s did not filter out %q", tc.only, s)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, e := range entries {
				files = append(files, e.Name())
			}
			if !slices.Equal(files, tc.files) {
				t.Fatalf("-json wrote %v, want %v", files, tc.files)
			}
			if tc.check != nil {
				tc.check(t, dir)
			}
		})
	}
}

// TestBuildBaseline smoke-tests the B1 emitter end to end: the first run
// writes a baseline, the second embeds it via -buildref and writes pprof
// profiles.
func TestBuildBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_build.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-only", "B1", "-json", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	var base experiments.BuildBaseline
	decodeBaseline(t, path, &base)
	if base.PrePR != nil {
		t.Fatal("first run must not carry a pre-PR reference")
	}
	if base.Current.Boxes <= 0 || base.Current.BoxesPerSec <= 0 {
		t.Fatalf("no build throughput measured: %+v", base.Current)
	}
	if len(base.Current.Repairs) != 4 {
		t.Fatalf("baseline has %d repair rows, want 4", len(base.Current.Repairs))
	}
	for i, p := range base.Current.Repairs {
		if p.NanosPerEdit <= 0 {
			t.Fatalf("repair row %d: no latency measured: %+v", i, p)
		}
		if p.FullRebuild && p.ReusedPerEdit != 0 {
			t.Fatalf("repair row %d: FullRebuild engine reused boxes: %+v", i, p)
		}
		if !p.FullRebuild && p.Workload == "relabel-neutral" && p.ReusedPerEdit == 0 {
			t.Fatalf("repair row %d: neutral stream never reused a box: %+v", i, p)
		}
	}

	refDir := filepath.Join(dir, "ref")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-quick", "-only", "B1", "-json", refDir, "-buildref", path, "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	var withRef experiments.BuildBaseline
	decodeBaseline(t, filepath.Join(refDir, "BENCH_build.json"), &withRef)
	if withRef.PrePR == nil || withRef.PrePR.Boxes != base.Current.Boxes {
		t.Fatalf("-buildref did not embed the reference run: %+v", withRef.PrePR)
	}
	if !strings.Contains(stdout.String(), "speedup") {
		t.Fatalf("reference run table missing the speedup row:\n%s", stdout.String())
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}
