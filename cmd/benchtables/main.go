// Command benchtables runs the experiments of internal/experiments and
// prints their markdown tables. Experiments that record a baseline can
// also write it as machine-readable JSON.
//
// Usage:
//
//	benchtables                    # every experiment, full sizes
//	benchtables -quick             # reduced sizes
//	benchtables -only E4,C1,B1     # a subset, by registry ID
//	benchtables -quick -json DIR   # also write each selected baseline
//	                               # to DIR/BENCH_<name>.json
//	benchtables -only B1 -json DIR -buildref OLD.json
//	                               # embed a previous B1 run as the
//	                               # comparison reference
//	benchtables -cpuprofile cpu.pprof -memprofile mem.pprof ...
//	                               # profile the selected experiments
//
// The IDs are E1–E10, T1, T2 and F1 (tables only) and C1, C2, D1, C3,
// E1-par, E-struct, E-delta and B1 (baselines).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced input sizes")
	only := fs.String("only", "", "comma-separated experiment IDs (e.g. E1,E4,C1); default: all")
	jsonDir := fs.String("json", "", "write each selected baseline to DIR/BENCH_<name>.json")
	buildref := fs.String("buildref", "", "embed a previous B1 baseline (its \"current\" run) as the pre-PR reference of this B1 run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the selected experiments to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected := experiments.Registry
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}
	var ref *experiments.BuildBaseline
	if *buildref != "" {
		if !slices.ContainsFunc(selected, func(e experiments.Experiment) bool { return e.ID == "B1" }) {
			return errors.New("-buildref needs B1 among the selected experiments")
		}
		data, err := os.ReadFile(*buildref)
		if err != nil {
			return err
		}
		ref = new(experiments.BuildBaseline)
		if err := json.Unmarshal(data, ref); err != nil {
			return fmt.Errorf("parsing -buildref %s: %w", *buildref, err)
		}
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}

	// The memprofile defer is registered FIRST so that (LIFO) the CPU
	// profile is stopped before the heap snapshot's forced GC runs —
	// otherwise the GC and profile write would be sampled into the CPU
	// profile this flag exists to keep honest.
	if *memprofile != "" {
		defer func() {
			// Propagate a failed profile write through the named return:
			// the flag exists to produce evidence, so a missing artifact
			// must fail the run, not just print a note.
			f, ferr := os.Create(*memprofile)
			if ferr != nil {
				err = errors.Join(err, fmt.Errorf("memprofile: %w", ferr))
				return
			}
			defer f.Close()
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				err = errors.Join(err, fmt.Errorf("memprofile: %w", werr))
			}
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// The speedup columns of the parallel experiments are meaningless on
	// one core: warn loudly instead of silently committing ~1× baselines
	// (the JSONs still record cpus/gomaxprocs either way).
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(stderr, "benchtables: WARNING: runtime.NumCPU() == 1 — workers time-share one core, "+
			"speedup columns will sit near 1x; re-record on multi-core hardware for meaningful scaling numbers")
	}

	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		res := e.Run(*quick)
		if b, ok := res.Data.(*experiments.BuildBaseline); ok && ref != nil {
			b.PrePR = &ref.Current
			res.Tables = []experiments.Table{b.Table()}
		}
		for _, t := range res.Tables {
			fmt.Fprintln(stdout, t.Markdown())
		}
		note := ""
		if *jsonDir != "" && e.Baseline != "" {
			data, err := json.MarshalIndent(res.Data, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(*jsonDir, "BENCH_"+e.Baseline+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			note = ", baseline written to " + path
		}
		fmt.Fprintf(stderr, "[%s done in %v%s]\n", e.ID, time.Since(t0).Round(time.Millisecond), note)
	}
	fmt.Fprintf(stderr, "[total %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}
