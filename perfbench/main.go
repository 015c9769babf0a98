// Command perfbench is the repository's benchmark: one closed-loop
// client drives the tree engine through one of two workloads
// (standing, ambiguous) and prints the end-to-end metrics, or,
// with --trace 1, the per-layer metrics of a traced replica of the
// engine's write and read paths. Every run is gated by a differential
// oracle. See README.md for the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/bitset"
)

// metricDef is one metric the benchmark prints.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_p25_us", "us"},
	{"page_p25_us", "us"},
	{"delay_p25_ns", "ns"},
	{"heap_bytes_per_node", "bytes"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"forest.edit_us", "us"},
	{"forest.drain_us", "us"},
	{"forest.fresh_nodes_per_edit", "count"},
	{"forest.rebalances_per_1k_edits", "count"},
	{"tva.translate_ms", "ms"},
	{"tva.unambiguous_ms", "ms"},
	{"circuit.program_ms", "ms"},
	{"circuit.box_us", "us"},
	{"circuit.boxes_rebuilt_per_edit", "count"},
	{"circuit.reuse_ratio", "ratio"},
	{"circuit.gamma_us", "us"},
	{"circuit.build_ms", "ms"},
	{"enumerate.index_us", "us"},
	{"enumerate.diff_us", "us"},
	{"enumerate.diff_answers_per_edit", "count"},
	{"enumerate.at_us", "us"},
	{"enumerate.materialize_ns", "ns"},
	{"enumerate.next_ns", "ns"},
	{"counting.unions_us", "us"},
	{"counting.gamma_us", "us"},
	{"engine.publish_us", "us"},
	{"engine.dispatch_us", "us"},
	{"engine.fallback_diff_us", "us"},
	{"engine.self_us", "us"},
	{"engine.pipelines", "count"},
	{"engine.registrations", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"runtime.heap_live_bytes", "bytes"},
	{"trace.overhead_us", "us"},
	{"trace.self_sum_error", "ratio"},
	// The medians and p99s of the latencies do not repeat within a
	// tenth from run to run on the shared 2-CPU machine (see README.md),
	// so they are diagnostics of the traced run's engine-only phase
	// rather than bounded end-to-end metrics.
	{"latency.update_p50_us", "us"},
	{"latency.update_p99_us", "us"},
	{"latency.page_p50_us", "us"},
	{"latency.page_p99_us", "us"},
	{"latency.delay_p50_ns", "ns"},
	{"latency.delay_p99_ns", "ns"},
}

// boundsCPUs is the CPU count of the machine the bounds in
// BENCHMARK.json were set on.
const boundsCPUs = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // document and round size factor (1 = the benchmark)
	traceDir string  // where traced runs write their spans ("" = nowhere)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	env map[string]any
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "standing or ambiguous")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the script (edits, fragments, page offsets)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of the traced replica")
	flag.Parse()
	cfg.trace, cfg.scale, cfg.traceDir = trace == 1, 1, filepath.Join(".bench_build", "trace")

	start := time.Now()
	calib := calibrate()
	res, err := run(cfg)
	if res != nil {
		res.env["wall_s"] = time.Since(start).Seconds()
		res.env["calibration_ms"] = [2]float64{calib, calibrate()}
		env, _ := json.Marshal(map[string]any{"environment": res.env})
		fmt.Println(string(env))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res != nil {
			res.Correct = false
			out, _ := json.Marshal(res)
			fmt.Println(string(out))
		}
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// calibrate times a fixed integer loop (ms), recorded before and after
// the run: a reading of the machine's speed, independent of the code
// under test, for telling machine drift from a change in the program.
func calibrate() float64 {
	start := time.Now()
	x := uint64(1)
	for range 50_000_000 {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

var calibSink uint64

// environment records what a result depends on besides the code.
func environment(cfg config, sp spec) map[string]any {
	env := map[string]any{
		"workload":   sp.name,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernels":    bitset.Kernels(),
		"regs":       sp.regs,
		"seconds":    cfg.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" || s.Key == "-tags" {
				env[s.Key] = s.Value
			}
		}
	}
	if n := runtime.NumCPU(); n != boundsCPUs {
		w := fmt.Sprintf("bounds were set on %d CPUs, this machine has %d: compare medians only with runs on %d CPUs", boundsCPUs, n, boundsCPUs)
		env["warning"] = w
		fmt.Fprintln(os.Stderr, "perfbench: warning:", w)
	}
	return env
}

func run(cfg config) (*result, error) {
	sp, err := specFor(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}, env: environment(cfg, sp)}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		err = runTraced(cfg, sp, dur, res)
	} else {
		err = runUntraced(cfg, sp, dur, res)
	}
	if err != nil {
		res.Correct = false
	}
	return res, err
}

// account copies the operation tallies into the result.
func account(res *result, c *counts, prefix string) {
	a, f := c.totals()
	res.Attempted += a
	res.Failed += f
	for k, name := range []string{"edits", "pages", "drains"} {
		res.env[prefix+name] = [2]int{c.attempted[k], c.failed[k]}
	}
}

// sizes records the document size and the read registration's answer
// count.
func sizes(res *result, r *runner, when string) {
	res.env["nodes_"+when] = r.set.Tree().Size()
	res.env["answers_"+when] = r.answerCount(r.snap(r.sp.read))
}

func runUntraced(cfg config, sp spec, dur time.Duration, res *result) error {
	r, setup, err := newRunner(sp, cfg.seed, sp.setupPasses)
	if err != nil {
		return err
	}
	defer r.close()
	sizes(res, r, "start")
	err = r.run(dur, sp.checkRound)
	account(res, &r.ops, "ops_")
	if err != nil {
		return err
	}
	sizes(res, r, "end")
	res.env["rounds"] = r.rounds
	res.env["timed_s"] = r.timed.Seconds()
	res.env["oracle_s"] = r.checking.Seconds()
	res.env["setup_passes_s"] = setup
	res.env["samples"] = map[string]int{"update": len(r.update), "page": len(r.page), "delay": len(r.delays)}

	res.set(endToEnd, "setup_s", quantile(slices.Clone(setup), 0.25))
	res.set(endToEnd, "update_p25_us", quantile(r.update, 0.25)/1e3)
	res.set(endToEnd, "page_p25_us", quantile(r.page, 0.25)/1e3)
	res.set(endToEnd, "delay_p25_ns", quantile(r.delays, 0.25)/delayBlock)
	res.env["heap_round"] = sp.checkRound
	res.set(endToEnd, "heap_bytes_per_node", float64(r.heap)/float64(r.heapNodes))
	return nil
}

// runTraced measures the per-layer metrics in two phases with the same
// seed. Phase A runs the engine alone for half the time and reads the
// Go runtime counters. Phase B runs the engine (pinned to one worker, so
// its publish time compares with the serial replica) in lockstep with
// the traced replica for the other half, checking the replica against
// the engine after every edit and at every checkpoint.
func runTraced(cfg config, sp spec, dur time.Duration, res *result) error {
	a, _, err := newRunner(sp, cfg.seed, 1)
	if err != nil {
		return err
	}
	err = a.run(dur/2, 1)
	account(res, &a.ops, "phase_a_")
	if err != nil {
		a.close()
		return err
	}
	opsA, _ := a.ops.totals()
	res.env["phase_a_rounds"] = a.rounds
	res.env["phase_a_samples"] = map[string]int{"update": len(a.update), "page": len(a.page), "delay": len(a.delays)}
	res.set(perLayer, "latency.update_p50_us", quantile(a.update, 0.5)/1e3)
	res.set(perLayer, "latency.update_p99_us", quantile(a.update, 0.99)/1e3)
	res.set(perLayer, "latency.page_p50_us", quantile(a.page, 0.5)/1e3)
	res.set(perLayer, "latency.page_p99_us", quantile(a.page, 0.99)/1e3)
	res.set(perLayer, "latency.delay_p50_ns", quantile(a.delays, 0.5)/delayBlock)
	res.set(perLayer, "latency.delay_p99_ns", quantile(a.delays, 0.99)/delayBlock)
	res.set(perLayer, "runtime.gc_cpu_fraction", a.gc.gcCPU/max(a.gc.totalCPU, 1e-9))
	res.set(perLayer, "runtime.gc_cycles_per_1k_ops", a.gc.cycles/float64(opsA)*1000)
	heap, _ := a.heapAfterGC()
	res.set(perLayer, "runtime.heap_live_bytes", float64(heap))
	a.close()
	settle()

	b, _, err := newRunner(sp, cfg.seed, 1)
	if err != nil {
		return err
	}
	defer b.close()
	b.set.SetWorkers(1)
	rep, err := newReplica(b.mir.t.Clone(), sp)
	if err != nil {
		return err
	}
	b.rep = rep
	sizes(res, b, "start")
	err = b.run(dur/2, 1)
	account(res, &b.ops, "phase_b_")
	if err != nil {
		return err
	}
	sizes(res, b, "end")
	res.env["phase_b_rounds"] = b.rounds
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.tsv", sp.name, cfg.seed))
		if err := rep.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		res.env["spans_file"] = path
	}
	res.env["spans"] = len(rep.tr.spans)
	res.env["traced_edits"] = rep.traced
	st := b.set.Stats()
	layerMetrics(res, rep, st.Pipelines, st.Queries)
	return nil
}

// layerMetrics turns the replica's spans and counters into the
// per-layer metrics.
func layerMetrics(res *result, rep *replica, pipelines, registrations int) {
	lt := rep.tr.totals()
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(1, len(xs)))
	}
	st, n := rep.stats, rep.traced
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("forest.edit_us", per(lt.total[spForestEdit], lt.calls[spForestEdit], time.Microsecond))
	set("forest.drain_us", per(lt.total[spForestDrain], lt.calls[spForestDrain], time.Microsecond))
	set("forest.fresh_nodes_per_edit", ratio(st.fresh, n))
	set("forest.rebalances_per_1k_edits", 1000*ratio(rep.f.Rebalances()-rep.rebalances0, rep.edits))
	set("tva.translate_ms", mean(rep.translate))
	set("tva.unambiguous_ms", mean(rep.unambiguous))
	set("circuit.program_ms", mean(rep.program))
	set("circuit.box_us", per(lt.total[spBox], st.rebuilt, time.Microsecond))
	set("circuit.boxes_rebuilt_per_edit", ratio(st.rebuilt, n))
	set("circuit.reuse_ratio", ratio(st.reused, st.reused+st.rebuilt))
	// RootAccepting and Gamma take well under 1 µs per call, so they are
	// timed in batches at the checkpoints and scaled by how often traced
	// publishes called them.
	perPublish := ratio(rep.gammaCalls, rep.gammaSlots)
	set("circuit.gamma_us", per(rep.gammaProbe[0], rep.gammaProbeN, time.Microsecond)*perPublish)
	set("circuit.build_ms", mean(rep.build))
	set("enumerate.index_us", per(lt.total[spIndex], st.rebuilt, time.Microsecond))
	set("enumerate.diff_us", per(lt.total[spDiff], n, time.Microsecond))
	set("enumerate.diff_answers_per_edit", ratio(st.diffAnswers, n))
	set("enumerate.at_us", per(lt.total[spAt], rep.rankCalls, time.Microsecond))
	set("enumerate.materialize_ns", per(lt.total[spMaterialize], rep.materialized, time.Nanosecond))
	set("enumerate.next_ns", per(lt.total[spNext], rep.steps, time.Nanosecond))
	set("counting.unions_us", per(lt.total[spUnions], st.rebuilt, time.Microsecond))
	set("counting.gamma_us", per(rep.gammaProbe[1], rep.gammaProbeN, time.Microsecond)*perPublish)
	publish := per(time.Duration(rep.publishNs), n, time.Microsecond)
	set("engine.publish_us", publish)
	set("engine.dispatch_us", per(time.Duration(rep.dispatchNs), n, time.Microsecond))
	fallback := per(lt.total[spFallback], n, time.Microsecond)
	if lt.calls[spFallback] == 0 {
		fallback = per(rep.fallbackProbe, rep.fallbackN, time.Microsecond)
	}
	set("engine.fallback_diff_us", fallback)
	set("engine.self_us", publish-per(lt.layerSelf[spPublish], n, time.Microsecond))
	set("engine.pipelines", float64(pipelines))
	set("engine.registrations", float64(registrations))

	// Medians: a rare scapegoat rebuild costs a thousand publishes and
	// would swing a mean by whichever half it lands in.
	w := rep.publishWall
	set("trace.overhead_us", (quantile(w[1], 0.5)-quantile(w[0], 0.5))/1e3)
	errRatio := 0.0
	if rep.tracedWall > 0 {
		errRatio = float64(rep.tracedWall-lt.allSelf) / float64(rep.tracedWall)
	}
	set("trace.self_sum_error", errRatio)
}
