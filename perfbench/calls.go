package main

import (
	"fmt"
	"time"

	"netsmith/internal/fullsys"
	"netsmith/internal/route"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

// counters are the per-layer work counts of a traced run. They are
// only updated while the tracer is on.
type counters struct {
	synthCalls    int
	synthSteps    int64     // annealing steps of the calls that searched
	synthSearchS  float64   // wall time of the calls that searched
	synthGaps     []float64 // bounds gap of each call that searched
	prepareCalls  int
	vcLayers      []float64
	engineCells   int
	fullsysRuns   int
	storeGets     int // derived from job stats: one per synth lookup and per cell
	storeHits     int
	storePuts     int // observed: new objects in the store directory
	storeBytes    int64
	storeGetMS    []float64
	storePutMS    []float64
	serveJobs     int
	serveRejected int
	serveExecMS   []float64
	serveOverMS   []float64
}

// runner carries one benchmark run's seed, tracer, counters and
// scratch directory. Calls into a layer go through the helpers below,
// or wrap themselves in r.tr.do where only one workload makes them, so
// each gets a span and its counts.
type runner struct {
	seed    int64
	k       int
	tr      *tracer
	c       counters
	workDir string
}

func (r *runner) counting() bool { return r.tr.on }

// synthesize runs one store-less fixed-budget synthesis, the call
// netbench -matrix and the serve executors make for an "ns" topology.
func (r *runner) synthesize(cfg synth.Config) (*synth.Result, error) {
	var res *synth.Result
	start := time.Now()
	err := r.tr.do("synth", "synth.CachedGenerate", func() (err error) {
		res, _, err = synth.CachedGenerate(nil, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("synthesis: %w", err)
	}
	if r.counting() {
		r.c.synthCalls++
		r.c.synthSteps += int64(cfg.Iterations) * int64(cfg.Restarts)
		r.c.synthSearchS += time.Since(start).Seconds()
		r.c.synthGaps = append(r.c.synthGaps, res.Gap)
	}
	return res, nil
}

// prepare is sim.Prepare: routing plus a verified VC assignment.
func (r *runner) prepare(t *topo.Topology, kind sim.RoutingKind, seed int64) (*sim.Setup, error) {
	var st *sim.Setup
	err := r.tr.do("routing", "sim.Prepare", func() (err error) {
		st, err = sim.Prepare(t, kind, seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", t.Name, err)
	}
	r.notePrepared(st.VC)
	return st, nil
}

func (r *runner) notePrepared(a *vc.Assignment) {
	if r.counting() {
		r.c.prepareCalls++
		r.c.vcLayers = append(r.c.vcLayers, float64(a.NumVCs))
	}
}

// routeAndAssign re-runs the two halves of sim.Prepare standalone on
// the same inputs, so routing and VC assignment get separate times.
func (r *runner) routeAndAssign(t *topo.Topology, kind sim.RoutingKind, seed int64) error {
	var rt *route.Routing
	name := "route.MCLB"
	if kind == sim.UseNDBT {
		name = "route.NDBT"
	}
	if err := r.tr.do("routing", name, func() (err error) {
		if kind == sim.UseNDBT {
			rt, err = route.NDBT(t, seed)
		} else {
			rt, err = route.MCLB(t, route.MCLBOptions{Seed: seed})
		}
		return err
	}); err != nil {
		return err
	}
	return r.assign(rt, vc.Options{Seed: seed})
}

func (r *runner) assign(rt *route.Routing, opts vc.Options) error {
	return r.tr.do("routing", "vc.Assign", func() error {
		_, err := vc.Assign(rt, opts)
		return err
	})
}

// curve is Setup.Curve, one latency-vs-rate sweep.
func (r *runner) curve(st *sim.Setup, p traffic.Pattern, rates []float64, seed int64) (*sim.SweepResult, error) {
	var res *sim.SweepResult
	err := r.tr.do("engine", "sim.Setup.Curve", func() (err error) {
		res, err = st.Curve(p, rates, true, seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("curve %s/%s: %w", st.Topo.Name, p.Name(), err)
	}
	if r.counting() {
		r.c.engineCells += len(rates)
	}
	return res, checkPoints(st.Topo.Name+"/"+p.Name(), res.Points)
}

// matrix is sim.RunMatrix without a store.
func (r *runner) matrix(mc sim.MatrixConfig) (*sim.MatrixResult, error) {
	var res *sim.MatrixResult
	err := r.tr.do("engine", "sim.RunMatrix", func() (err error) {
		res, err = sim.RunMatrix(mc)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	if r.counting() {
		r.c.engineCells += res.Stats.Computed
	}
	return res, checkMatrix(res)
}

func (r *runner) buildExpert(noi *topo.Topology, seed int64) (*fullsys.System, error) {
	var sys *fullsys.System
	err := r.tr.do("routing", "fullsys.BuildExpert", func() (err error) {
		sys, err = fullsys.BuildExpert(noi, seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("full system %s: %w", noi.Name, err)
	}
	r.notePrepared(sys.VC)
	return sys, nil
}

func (r *runner) runWorkload(sys *fullsys.System, b fullsys.Benchmark, seed int64) (*fullsys.WorkloadResult, error) {
	var res *fullsys.WorkloadResult
	err := r.tr.do("fullsys", "fullsys.System.RunWorkload", func() (err error) {
		res, err = sys.RunWorkload(b, fullsys.DefaultExecModel(), seed, true)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("parsec %s: %w", b.Name, err)
	}
	if r.counting() {
		r.c.fullsysRuns++
	}
	if !(res.AvgPacketNs > 0) || !(res.CPI > 0) {
		return nil, fmt.Errorf("parsec %s: no packets measured (latency %v ns, CPI %v)", b.Name, res.AvgPacketNs, res.CPI)
	}
	return res, nil
}

// checkPoints is the per-point output check: no point stalls, and an
// unsaturated fault-free point delivers everything it measured.
func checkPoints(where string, pts []sim.SweepPoint) error {
	for _, p := range pts {
		if p.Stalled {
			return fmt.Errorf("%s: point at rate %g stalled", where, p.OfferedRate)
		}
		if !p.Saturated && p.DeliveredFraction != 1.0 {
			return fmt.Errorf("%s: unsaturated point at rate %g delivered %v, want 1.0", where, p.OfferedRate, p.DeliveredFraction)
		}
	}
	return nil
}

func checkMatrix(m *sim.MatrixResult) error {
	for _, c := range m.Curves {
		if err := checkPoints(c.Topology+"/"+c.Pattern, c.Points); err != nil {
			return err
		}
	}
	return nil
}

// radix is the synthesis default radix, which every workload's designs
// use.
const radix = 4

// checkDesign requires a synthesized topology to be strongly connected
// within the radix.
func checkDesign(t *topo.Topology) error {
	if !t.IsConnected() {
		return fmt.Errorf("design %s is not connected", t.Name)
	}
	if !t.RespectsRadix(radix) {
		return fmt.Errorf("design %s exceeds radix %d", t.Name, radix)
	}
	return nil
}
