package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"netsmith/internal/exp"
	"netsmith/internal/expert"
	"netsmith/internal/fullsys"
	"netsmith/internal/layout"
	"netsmith/internal/sim"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
	"netsmith/internal/vc"
)

// fastRates is exp.Suite's fast sweep grid (the paper figures' -fast).
var fastRates = []float64{0.005, 0.05, 0.10, 0.14, 0.18, 0.24, 0.32}

// paperExperts are the nine expert and LPBT baselines of the paper's
// 20-router comparison, in exp.Suite's order.
var paperExperts = []string{
	expert.NameKiteSmall, expert.NameLPBTPower, expert.NameLPBTHopsSmall,
	expert.NameFoldedTorus, expert.NameKiteMedium, expert.NameLPBTHopsMedium,
	expert.NameButterDonut, expert.NameDoubleButterfly, expert.NameKiteLarge,
}

// fastParsec is the fast PARSEC subset exp.Fig8 runs: every third
// benchmark, spanning the load range.
func fastParsec() []fullsys.Benchmark {
	b := fullsys.Benchmarks()
	return []fullsys.Benchmark{b[0], b[4], b[7], b[11]}
}

type paperInst struct {
	suite   *exp.Suite
	nois    []*topo.Topology // 9 experts, then NS LatOp/SCOp per class
	setups  []*sim.Setup
	ns      []*topo.Topology
	mesh    *fullsys.System
	benches []fullsys.Benchmark
	// uniSat is each NoI's uniform saturation in the first pass, for
	// the printed paper comparison.
	uniSat map[string]float64
}

func setupPaper(r *runner) (instance, error) {
	g := layout.Grid4x5
	p := &paperInst{
		suite: exp.NewSuite(true), benches: fastParsec(),
		uniSat: map[string]float64{},
	}
	p.suite.Seed = setupSeed(r.seed)
	for _, name := range paperExperts {
		t, err := expert.Get(name, g)
		if err != nil {
			return nil, err
		}
		p.nois = append(p.nois, t)
	}
	for _, c := range layout.Classes() {
		for _, obj := range []synth.Objective{synth.LatOp, synth.SCOp} {
			var t *topo.Topology
			if err := r.tr.do("synth", "exp.Suite.NS", func() (err error) {
				t, err = p.suite.NS(g, c, obj)
				return err
			}); err != nil {
				return nil, err
			}
			if r.counting() {
				r.c.synthCalls++
			}
			if err := checkDesign(t); err != nil {
				return nil, err
			}
			p.nois = append(p.nois, t)
			p.ns = append(p.ns, t)
		}
	}
	for _, t := range p.nois {
		var st *sim.Setup
		if err := r.tr.do("routing", "exp.Suite.Setup", func() (err error) {
			st, err = p.suite.Setup(t, paperRouting(t.Name))
			return err
		}); err != nil {
			return nil, err
		}
		r.notePrepared(st.VC)
		p.setups = append(p.setups, st)
	}
	var err error
	p.mesh, err = r.buildExpert(expert.Mesh(g), p.suite.Seed)
	return p, err
}

// paperRouting is exp's per-topology routing rule: MCLB for NetSmith
// designs, the NDBT heuristic for the baselines.
func paperRouting(name string) sim.RoutingKind {
	if strings.HasPrefix(name, "NS-") {
		return sim.UseMCLB
	}
	return sim.UseNDBT
}

// op k sweeps NoI k under coherence (uniform) and memory traffic, then
// runs one fast-subset PARSEC workload on the mesh full system.
func (p *paperInst) op(r *runner, i int) (opResult, error) {
	k := i % len(p.nois)
	seed := derive(r.seed, k)
	g := layout.Grid4x5
	st := p.setups[k]
	uni, err := r.curve(st, traffic.Uniform{N: g.N()}, fastRates, seed)
	if err != nil {
		return opResult{}, err
	}
	mem, err := r.curve(st, traffic.NewMemory(g.CoreRouters(), g.MemoryControllerRouters()), fastRates, seed)
	if err != nil {
		return opResult{}, err
	}
	b := p.benches[k%len(p.benches)]
	wr, err := r.runWorkload(p.mesh, b, seed)
	if err != nil {
		return opResult{}, err
	}
	if i < len(p.nois) {
		p.uniSat[st.Topo.Name] = uni.SaturationPerNs
	}
	out, err := json.Marshal([]any{uni, mem, wr})
	return opResult{cycled: out}, err
}

func (p *paperInst) designs() []*topo.Topology { return p.ns }

// standalone splits the set-up's routing/VC time: routing and VC
// assignment of every NoI, and the full system's VC assignment, re-run
// on the same inputs. The full system's routing is what remains of its
// build time.
func (p *paperInst) standalone(r *runner) (int, error) {
	r.tr.phase = "setup"
	defer func() { r.tr.phase = "op" }()
	for _, st := range p.setups {
		if err := r.routeAndAssign(st.Topo, paperRouting(st.Topo.Name), p.suite.Seed); err != nil {
			return 0, err
		}
	}
	// fullsys.Build* assign VCs with two tries.
	return 0, r.assign(p.mesh.Routing, vc.Options{Seed: p.suite.Seed, Tries: 2})
}

// report prints the paper's headline comparisons beside the paper's
// claimed ranges. The model is unvalidated; these are shown, not
// checked.
func (p *paperInst) report(w io.Writer) {
	var gain, hops []float64
	for _, c := range layout.Classes() {
		kite, ns := kiteName(c), ""
		for _, t := range p.ns {
			if t.Class == c && strings.Contains(t.Name, "LatOp") {
				ns = t.Name
			}
		}
		if ks, nsSat := p.uniSat[kite], p.uniSat[ns]; ks > 0 && nsSat > 0 {
			gain = append(gain, 100*(nsSat/ks-1))
		}
		var kt, nt *topo.Topology
		for _, t := range p.nois {
			switch t.Name {
			case kite:
				kt = t
			case ns:
				nt = t
			}
		}
		if kt != nil && nt != nil {
			hops = append(hops, 100*(1-nt.AverageHops()/kt.AverageHops()))
		}
	}
	fmt.Fprintf(w, "paper: ns_sat_gain_pct=%.1f (NS-LatOp vs Kite per class, uniform, mean of %d; paper: 50-75)\n", mean(gain), len(gain))
	fmt.Fprintf(w, "paper: ns_hops_reduction_pct=%.1f (NS-LatOp vs Kite per class, mean of %d; paper: 8-13.5)\n", mean(hops), len(hops))
}

// parsecSpeedup builds the medium NS-LatOp full system and reports the
// geometric-mean PARSEC speedup over the mesh system on the fast
// subset. It costs a second full-system build, so only traced runs
// print it.
func (p *paperInst) parsecSpeedup(r *runner, w io.Writer) error {
	var ns *topo.Topology
	for _, t := range p.ns {
		if t.Class == layout.Medium && strings.Contains(t.Name, "LatOp") {
			ns = t
		}
	}
	if ns == nil {
		return fmt.Errorf("no medium NS-LatOp design")
	}
	var sys *fullsys.System
	if err := r.tr.do("routing", "fullsys.Build", func() (err error) {
		sys, err = fullsys.Build(ns, p.suite.Seed)
		return err
	}); err != nil {
		return err
	}
	r.notePrepared(sys.VC)
	prod := 1.0
	for _, b := range p.benches {
		seed := derive(r.seed, 0)
		base, err := r.runWorkload(p.mesh, b, seed)
		if err != nil {
			return err
		}
		res, err := r.runWorkload(sys, b, seed)
		if err != nil {
			return err
		}
		prod *= base.CPI / res.CPI
	}
	fmt.Fprintf(w, "paper: parsec_speedup=%.3f (%s vs mesh, geomean of %d fast-subset PARSEC runs; paper: NS speeds PARSEC up over mesh)\n",
		math.Pow(prod, 1/float64(len(p.benches))), ns.Name, len(p.benches))
	return nil
}

func (p *paperInst) close() {}

func kiteName(c layout.Class) string {
	switch c {
	case layout.Small:
		return expert.NameKiteSmall
	case layout.Medium:
		return expert.NameKiteMedium
	}
	return expert.NameKiteLarge
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
