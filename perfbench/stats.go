package main

import (
	"math"
	"sort"
	"time"
)

// derive maps (seed, i) to the i-th input seed of a workload's cycle
// with splitmix64, so op i of every run with the same --seed gets the
// same input, and neighbouring seeds do not share inputs.
func derive(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep seeds positive and well inside int64 so they print and
	// round-trip through JSON request bodies unchanged.
	return int64(z >> 2)
}

// setupSeed is the stream set-up work draws from; it is disjoint from
// the op inputs derive(seed, 0..K-1).
func setupSeed(seed int64) int64 { return derive(seed, -1) }

// median returns the middle value (mean of the two middle values for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest whole percentile p (50..99) whose
// nearest-rank value still leaves at least minBeyond samples above its
// rank, that value, and the number of samples beyond it. ok is false
// when even the median has fewer than minBeyond samples beyond it.
func tailPercentile(xs []float64, minBeyond int) (p int, v float64, beyond int, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for q := 99; q >= 50; q-- {
		rank := int(math.Ceil(float64(q) * float64(n) / 100)) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return q, s[rank-1], n - rank, true
		}
	}
	return 0, 0, 0, false
}

// accounting is the throughput and CPU cost of a measured phase.
type accounting struct {
	ops    int
	opWall time.Duration // summed wall time of the completed ops
	cpu    time.Duration // process user+sys CPU over the phase
}

// opsPerSec is completed ops over the time those ops took — not ops per
// fixed window, which one op overrunning the deadline would quantize.
func (a accounting) opsPerSec() float64 {
	if a.ops == 0 || a.opWall <= 0 {
		return 0
	}
	return float64(a.ops) / a.opWall.Seconds()
}

// cpuPerOp is process CPU seconds per completed op.
func (a accounting) cpuPerOp() float64 {
	if a.ops == 0 {
		return 0
	}
	return a.cpu.Seconds() / float64(a.ops)
}

// interval is a half-open time span [start, end) in nanoseconds from
// the trace origin.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (concurrent calls) and may
// stick out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
