// Command perfbench is the repository benchmark. Each workload repeats
// one short, uniform operation over a fixed cycle of K inputs derived
// from --seed, after a set-up that runs several times so its median is
// steady. One single-threaded driver runs the load; the program's own
// worker pools use GOMAXPROCS as usual.
//
//	perfbench --workload synth-8x8 --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
// Everything before it is human-readable: host record, tail latency,
// output digest and the paper comparisons.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netsmith/internal/topo"
)

// workload is one benchmark workload. Its inputs are derive(seed, k)
// for k < K; op i uses input i mod K.
type workload struct {
	name   string
	seed   int64 // default --seed
	k      int   // inputs in the op cycle
	setups int   // set-ups per run; setup_s is their median (cheap set-ups run more often: one sub-second set-up is the noisiest figure)
	setup  func(r *runner) (instance, error)
}

// instance is a set-up workload, ready to run ops.
type instance interface {
	// op runs op i and checks its output.
	op(r *runner, i int) (opResult, error)
	// designs are the workload's fixed cycle of synthesized designs.
	designs() []*topo.Topology
	// standalone re-runs, in a traced run, public calls that the ops
	// or the set-up make from inside another layer, on the same
	// inputs; it returns how many ops its op-phase calls cover.
	standalone(r *runner) (int, error)
	// report prints workload-specific lines.
	report(w io.Writer)
	close()
}

// traceHooker is implemented by instances that observe each traced op
// from outside its timed region.
type traceHooker interface {
	traceHook(r *runner, i int, after bool) error
}

// opResult holds an op's output bytes. cycled must repeat exactly on
// every pass over the input cycle; fresh covers inputs that do not
// cycle and is only folded into the output digest.
type opResult struct {
	cycled, fresh []byte
}

var workloads = []workload{
	// paper-4x5: the paper's headline experiment (Figure 6 curves plus
	// a Figure 8 PARSEC run). The op is nearly all engine, through the
	// sim.Sweep pool and the sub-rate full-system stepper; routing/VC
	// appears only in set-up. Default seed 42, exp.Suite's own seed.
	{name: "paper-4x5", seed: 42, k: 15, setups: 3, setup: setupPaper},
	// serve-4x5: the only workload through HTTP, the job queue and the
	// store, with reads next to writes. A whole block of four jobs is
	// the op, so its time is uniform, not bimodal. Default seed 2.
	{name: "serve-4x5", seed: 2, k: 6, setups: 5, setup: setupServe},
	// synth-8x8: synthesis alone, with no Prepare, engine or store, so
	// a synthesis change can show here; it is also the bypass case for
	// Prepare and engine changes. Synthesis is 6% or less of every
	// other op. Default seed 3.
	{name: "synth-8x8", seed: 3, k: 24, setups: 7, setup: setupSynth},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: paper-4x5, serve-4x5 or synth-8x8")
	seed := fl.Int64("seed", -1, "workload seed (-1: the workload's default)")
	seconds := fl.Float64("seconds", 10, "measured time per run; whole passes over the input cycle")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-4x5, serve-4x5, synth-8x8), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *seed == -1 {
		*seed = w.seed
	}
	// Scratch stores and span files stay inside the checkout.
	const workDir = ".bench_build/perfbench-work"
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{seed: *seed, k: w.k, tr: newTracer(), workDir: workDir}
	st0, ok0 := readCPUStat()
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(r, w, *seconds, stdout)
	} else {
		res, err = untraced(r, w, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st1, ok1 := readCPUStat()
	fmt.Fprintln(stdout, hostLine(stealPct(st0, st1, ok0, ok1)))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// setUp runs the workload's set-up the given number of times and keeps
// the last instance; the median of the wall times is setup_s. With
// trace, the kept set-up is traced.
func setUp(r *runner, w *workload, times int, trace bool) (instance, []float64, error) {
	var walls []float64
	var inst instance
	for n := 0; n < times; n++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		r.tr.on = trace && n == times-1
		start := time.Now()
		var err error
		inst, err = w.setup(r)
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return inst, walls, nil
}

// passState accumulates the ops of a run's passes. digests holds the
// cycled output hash of each input, set the first time the input runs
// and compared every later time.
type passState struct {
	digests [][32]byte
	seen    []bool
	fresh   []byte // fresh bytes of the first K ops, in order
	durs    []float64
	opWall  time.Duration
	ops     int
	failed  int
	errs    []error
}

func newPassState(k int) *passState {
	return &passState{digests: make([][32]byte, k), seen: make([]bool, k)}
}

// runPass runs ops i0..i0+K-1, checking and timing each.
func (ps *passState) runPass(r *runner, w *workload, inst instance, i0 int, hook traceHooker) error {
	for k := 0; k < w.k; k++ {
		i := i0 + k
		if hook != nil {
			if err := hook.traceHook(r, i, false); err != nil {
				return err
			}
		}
		start := time.Now()
		out, err := inst.op(r, i)
		d := time.Since(start)
		if err == nil {
			sum := sha256.Sum256(out.cycled)
			if !ps.seen[k] {
				ps.digests[k], ps.seen[k] = sum, true
				ps.fresh = append(ps.fresh, out.fresh...)
			} else if sum != ps.digests[k] {
				err = fmt.Errorf("op %d: output differs from the first pass over input %d", i, k)
			}
		}
		if err != nil {
			ps.failed++
			ps.errs = append(ps.errs, err)
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			continue
		}
		ps.ops++
		ps.opWall += d
		ps.durs = append(ps.durs, d.Seconds())
		if hook != nil {
			if err := hook.traceHook(r, i, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// outputDigest hashes every input's cycled output in input order plus
// the fresh bytes of the first pass, so two builds can be compared
// byte for byte.
func (ps *passState) outputDigest() string {
	h := sha256.New()
	for _, d := range ps.digests {
		h.Write(d[:])
	}
	h.Write(ps.fresh)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// designAvgHops is the mean average hop count of the design cycle.
func designAvgHops(inst instance) (float64, error) {
	var hops []float64
	for _, t := range inst.designs() {
		hops = append(hops, t.AverageHops())
	}
	if len(hops) == 0 {
		return 0, fmt.Errorf("no synthesized designs in the cycle")
	}
	return mean(hops), nil
}

func untraced(r *runner, w *workload, seconds float64, stdout io.Writer) (*result, error) {
	inst, walls, err := setUp(r, w, w.setups, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	r.tr.phase = "op"
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	ps := newPassState(w.k)
	cpu0, start := cpuTime(), time.Now()
	for pass := 0; pass < 2 || time.Since(start).Seconds() < seconds; pass++ {
		if err := ps.runPass(r, w, inst, pass*w.k, nil); err != nil {
			return nil, err
		}
	}
	acct := accounting{ops: ps.ops, opWall: ps.opWall, cpu: cpuTime() - cpu0}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	hops, err := designAvgHops(inst)
	if err != nil {
		return nil, err
	}
	if ps.ops == 0 {
		return nil, fmt.Errorf("no op completed: %v", ps.errs)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops in %d passes of %d inputs, %d failed\n",
		w.name, r.seed, ps.ops+ps.failed, (ps.ops+ps.failed)/w.k, w.k, ps.failed)
	fmt.Fprintf(stdout, "setup_s samples: %v\n", walls)
	if p, v, beyond, ok := tailPercentile(ps.durs, 10); ok {
		fmt.Fprintf(stdout, "tail: p%d=%.4f s (%d samples, %d beyond)\n", p, v, len(ps.durs), beyond)
	} else {
		fmt.Fprintf(stdout, "tail: none (%d samples; a percentile needs 10 beyond it)\n", len(ps.durs))
	}
	fmt.Fprintf(stdout, "output_digest: %s\n", ps.outputDigest())
	inst.report(stdout)
	return &result{
		Correct:   ps.failed == 0,
		Attempted: ps.ops + ps.failed,
		Failed:    ps.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(walls), "s"},
			"op_p50_s":        {median(ps.durs), "s"},
			"ops_per_s":       {acct.opsPerSec(), "1/s"},
			"cpu_s_per_op":    {acct.cpuPerOp(), "s"},
			"peak_rss_mb":     {rss, "MB"},
			"design_avg_hops": {hops, "hops"},
		},
	}, nil
}

// traced sets up once with tracing on, then alternates untraced and
// traced passes (the untraced ones measure the tracing overhead), then
// re-runs nested public calls standalone, and reports per-layer
// metrics. Spans are written to spans-<workload>-<seed>.json in the
// work directory.
func traced(r *runner, w *workload, seconds float64, stdout io.Writer) (*result, error) {
	inst, walls, err := setUp(r, w, 1, true)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	setupWall := walls[0]
	r.tr.phase = "op"
	hook, _ := inst.(traceHooker)
	plain := newPassState(w.k)
	// Traced passes check their outputs against the same digests.
	tracedPS := &passState{digests: plain.digests, seen: plain.seen}
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start).Seconds() < seconds; pass++ {
		ps, h := plain, traceHooker(nil)
		r.tr.on = pass%2 == 1
		if r.tr.on {
			ps, h = tracedPS, hook
		}
		if err := ps.runPass(r, w, inst, pass*w.k, h); err != nil {
			return nil, err
		}
	}
	r.tr.on = true
	r.tr.standalone = true
	covered, err := inst.standalone(r)
	if err != nil {
		return nil, fmt.Errorf("standalone calls: %w", err)
	}
	r.tr.standalone = false
	if p, ok := inst.(*paperInst); ok {
		// Its spans go to a phase of their own, outside the shares.
		r.tr.phase = "report"
		if err := p.parsecSpeedup(r, stdout); err != nil {
			return nil, err
		}
	}
	r.tr.on = false
	failed := plain.failed + tracedPS.failed
	if tracedPS.ops == 0 || plain.ops == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	spanFile := filepath.Join(r.workDir, fmt.Sprintf("spans-%s-%d.json", w.name, r.seed))
	if err := r.tr.write(spanFile); err != nil {
		return nil, err
	}
	m := layerMetrics(r, setupWall, tracedPS, median(plain.durs), covered)
	printLayers(stdout, w.name, m, setupWall, tracedPS)
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.tr.spans), spanFile)
	inst.report(stdout)
	return &result{Correct: failed == 0, Attempted: plain.ops + tracedPS.ops + failed, Failed: failed, Metrics: m}, nil
}
