package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Layers, named after the modules they cover (LAYERS.md maps each to
// its packages). "other" is driver time outside every layer span:
// output checks, digests, bookkeeping.
var layers = []string{"synth", "routing", "engine", "fullsys", "store", "serve", "other"}

// span is one call from the benchmark into a layer's public function.
// Standalone spans time a public call that the measured op makes from
// inside another layer (synthesis inside a served job, say), re-run
// on the same inputs; Carve names the layer the call ran inside, whose
// share the standalone time is moved out of.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // 0: no parent
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Phase      string `json:"phase"` // setup | op | report
	Standalone bool   `json:"standalone,omitempty"`
	Carve      string `json:"carve,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the driver is single-threaded, so open
// spans form a stack. A switched-off tracer records nothing.
type tracer struct {
	on         bool
	origin     time.Time
	phase      string
	standalone bool
	carve      string
	spans      []span
	stack      []int // indices into spans of the open spans
}

func newTracer() *tracer { return &tracer{origin: time.Now(), phase: "setup"} }

// do runs f inside a span when tracing is on.
func (t *tracer) do(layer, name string, f func() error) error {
	if !t.on {
		return f()
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.spans[t.stack[len(t.stack)-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Name: name, Layer: layer,
		Phase: t.phase, Standalone: t.standalone, Carve: t.carve,
		Start: int64(time.Since(t.origin)),
	})
	t.stack = append(t.stack, idx)
	err := f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].End = int64(time.Since(t.origin))
	return err
}

// selfByLayer sums self time (ns) per layer over the non-standalone
// spans of a phase.
func (t *tracer) selfByLayer(phase string) map[string]int64 {
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		if s.Phase != phase || s.Standalone {
			continue
		}
		out[s.Layer] += selfTime(interval{s.Start, s.End}, children[s.ID])
	}
	return out
}

// carvedByLayer sums the durations (ns) of a phase's standalone spans
// that carry a Carve, by their own layer and by the layer they are
// carved out of. Only top-level standalone spans count, so nested
// standalone calls are not doubled. Standalone spans without a Carve
// only split a layer's time inside itself (routing into route and vc)
// and move nothing.
func (t *tracer) carvedByLayer(phase string) (in, carved map[string]int64) {
	in, carved = map[string]int64{}, map[string]int64{}
	byID := map[int]span{}
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if s.Phase != phase || !s.Standalone || s.Carve == "" {
			continue
		}
		if p, ok := byID[s.Parent]; ok && p.Standalone {
			continue
		}
		d := s.End - s.Start
		in[s.Layer] += d
		carved[s.Carve] += d
	}
	return in, carved
}

// totalByName sums the durations (s) of all spans whose name is listed.
func (t *tracer) totalByName(names ...string) float64 {
	var sum int64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				sum += s.End - s.Start
			}
		}
	}
	return float64(sum) / 1e9
}

// write saves the spans as JSON, sorted by start time.
func (t *tracer) write(path string) error {
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
