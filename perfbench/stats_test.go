package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      int
		v      float64
		beyond int
		ok     bool
	}{
		{n: 10, ok: false}, // the median leaves 5 beyond
		{n: 19, ok: false}, // p50 is rank 10, 9 beyond
		{n: 20, p: 50, v: 10, beyond: 10, ok: true},
		{n: 30, p: 66, v: 20, beyond: 10, ok: true}, // p67 is rank 21, 9 beyond
		{n: 100, p: 90, v: 90, beyond: 10, ok: true},
		{n: 1000, p: 99, v: 990, beyond: 10, ok: true},
	} {
		p, v, beyond, ok := tailPercentile(seq(tc.n), 10)
		if ok != tc.ok || p != tc.p || v != tc.v || beyond != tc.beyond {
			t.Errorf("n=%d: got p%d=%v beyond %d ok %v, want p%d=%v beyond %d ok %v",
				tc.n, p, v, beyond, ok, tc.p, tc.v, tc.beyond, tc.ok)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"unsorted", []interval{{70, 90}, {10, 40}, {35, 50}}, 40},
		{"sticking out", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 120}, {-5, 0}}, 100},
		{"covering", []interval{{0, 100}, {5, 95}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAccounting(t *testing.T) {
	a := accounting{ops: 8, opWall: 4 * time.Second, cpu: 6 * time.Second}
	if got := a.opsPerSec(); got != 2 {
		t.Errorf("ops/s %v, want 2", got)
	}
	if got := a.cpuPerOp(); got != 0.75 {
		t.Errorf("cpu s/op %v, want 0.75", got)
	}
	if z := (accounting{}); z.opsPerSec() != 0 || z.cpuPerOp() != 0 {
		t.Errorf("empty phase: %v ops/s, %v cpu s/op, want 0 and 0", z.opsPerSec(), z.cpuPerOp())
	}
}

func TestDeriveDeterministic(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := -1; i < 64; i++ {
			v := derive(seed, i)
			if v != derive(seed, i) {
				t.Fatalf("derive(%d, %d) is not a function of its arguments", seed, i)
			}
			if v < 0 {
				t.Fatalf("derive(%d, %d) = %d, want non-negative", seed, i, v)
			}
			if seen[v] {
				t.Fatalf("derive(%d, %d) = %d repeats an earlier input", seed, i, v)
			}
			seen[v] = true
		}
	}
	// Pinned values: a change here changes every workload's inputs, and
	// with them every figure recorded against this benchmark.
	for _, tc := range []struct {
		seed int64
		i    int
		want int64
	}{
		{42, 0, 3419864383188818853},
		{42, 14, 3067506354810381239},
		{1, -1, 1559518186985144697}, // a set-up seed, derive(seed, -1)
	} {
		if got := derive(tc.seed, tc.i); got != tc.want {
			t.Errorf("derive(%d, %d) = %d, want %d", tc.seed, tc.i, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
