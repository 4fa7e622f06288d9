package main

import (
	"encoding/json"
	"fmt"
	"io"

	"netsmith/internal/layout"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
)

type synthInst struct {
	g     *layout.Grid
	cycle []*topo.Topology // first pass designs, in input order
	gaps  []float64
}

// synthConfig is the serve default budget (60000 iterations x 4
// restarts) at 8x8 medium LatOp.
func (s *synthInst) synthConfig(seed int64) synth.Config {
	return synth.Config{
		Grid: s.g, Class: layout.Medium, Objective: synth.LatOp,
		Seed: seed, Iterations: 60000, Restarts: 4,
	}
}

// setupSynth runs one warm-up synthesis, which fills the synthesis
// package's memoized bounds for the grid.
func setupSynth(r *runner) (instance, error) {
	s := &synthInst{g: layout.NewGrid(8, 8)}
	res, err := r.synthesize(s.synthConfig(setupSeed(r.seed)))
	if err != nil {
		return nil, err
	}
	return s, checkDesign(res.Topology)
}

func (s *synthInst) op(r *runner, i int) (opResult, error) {
	res, err := r.synthesize(s.synthConfig(derive(r.seed, i%r.k)))
	if err != nil {
		return opResult{}, err
	}
	if err := checkDesign(res.Topology); err != nil {
		return opResult{}, err
	}
	if i < r.k {
		s.cycle = append(s.cycle, res.Topology)
		s.gaps = append(s.gaps, res.Gap)
	}
	out, err := json.Marshal([]any{res.Topology, res.Objective, res.Bound, res.Optimal})
	return opResult{cycled: out}, err
}

func (s *synthInst) designs() []*topo.Topology { return s.cycle }

// standalone has nothing to split: synthesis is called directly.
func (s *synthInst) standalone(r *runner) (int, error) { return 0, nil }

func (s *synthInst) report(w io.Writer) {
	fmt.Fprintf(w, "synth: mean_gap_pct=%.2f (bounds gap of the %d cycle designs)\n", 100*mean(s.gaps), len(s.gaps))
}

func (s *synthInst) close() {}
