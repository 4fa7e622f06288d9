package main

import (
	"fmt"
	"io"
)

// layerShares returns each layer's seconds in one set-up and per op of
// a traced run. Direct spans give self time; standalone spans with a
// Carve move their time out of the layer they ran inside, per op they
// cover. "other" is the wall time no layer accounts for.
func layerShares(tr *tracer, setupWall, opWall float64, tracedOps, covered int) (setup, op map[string]float64) {
	setup, op = map[string]float64{}, map[string]float64{}
	self := tr.selfByLayer("setup")
	in, carved := tr.carvedByLayer("setup")
	for _, l := range layers[:len(layers)-1] {
		setup[l] = float64(self[l]+in[l]-carved[l]) / 1e9
	}
	self = tr.selfByLayer("op")
	in, carved = tr.carvedByLayer("op")
	for _, l := range layers[:len(layers)-1] {
		v := float64(self[l]) / 1e9 / float64(tracedOps)
		if covered > 0 {
			v += float64(in[l]-carved[l]) / 1e9 / float64(covered)
		}
		op[l] = v
	}
	setup["other"], op["other"] = setupWall, opWall
	for _, l := range layers[:len(layers)-1] {
		setup["other"] -= setup[l]
		op["other"] -= op[l]
	}
	return setup, op
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the per-layer metrics of a traced run. Counts
// and times cover everything the traced run called: the set-up, the
// traced passes and the standalone re-runs.
func layerMetrics(r *runner, setupWall float64, ps *passState, plainP50 float64, covered int) map[string]metric {
	c, tr := &r.c, r.tr
	opWall := ps.opWall.Seconds() / float64(ps.ops)
	setup, op := layerShares(tr, setupWall, opWall, ps.ops, covered)
	synthS := tr.totalByName("synth.CachedGenerate", "exp.Suite.NS")
	prepareS := tr.totalByName("sim.Prepare", "exp.Suite.Setup", "fullsys.BuildExpert", "fullsys.Build")
	engineS := tr.totalByName("sim.Setup.Curve", "sim.RunMatrix")
	m := map[string]metric{
		"synth.calls":           {float64(c.synthCalls), "count"},
		"synth.s":               {synthS, "s"},
		"synth.steps_per_s":     {ratio(float64(c.synthSteps), c.synthSearchS), "1/s"},
		"synth.gap_pct":         {100 * mean(c.synthGaps), "%"},
		"prepare.calls":         {float64(c.prepareCalls), "count"},
		"prepare.s":             {prepareS, "s"},
		"route.s":               {tr.totalByName("route.MCLB", "route.NDBT"), "s"},
		"vc.s":                  {tr.totalByName("vc.Assign"), "s"},
		"vc.layers":             {mean(c.vcLayers), "count"},
		"engine.cells":          {float64(c.engineCells), "count"},
		"engine.s":              {engineS, "s"},
		"engine.ms_per_cell":    {1000 * ratio(engineS, float64(c.engineCells)), "ms"},
		"fullsys.runs":          {float64(c.fullsysRuns), "count"},
		"fullsys.s":             {tr.totalByName("fullsys.System.RunWorkload"), "s"},
		"fullsys.build_s":       {tr.totalByName("fullsys.BuildExpert", "fullsys.Build"), "s"},
		"store.gets":            {float64(c.storeGets), "count"},
		"store.puts":            {float64(c.storePuts), "count"},
		"store.hit_ratio":       {ratio(float64(c.storeHits), float64(c.storeGets)), "ratio"},
		"store.get_ms":          {mean(c.storeGetMS), "ms"},
		"store.put_ms":          {mean(c.storePutMS), "ms"},
		"store.bytes_written":   {float64(c.storeBytes), "bytes"},
		"serve.jobs":            {float64(c.serveJobs), "count"},
		"serve.exec_ms_p50":     {median(c.serveExecMS), "ms"},
		"serve.overhead_ms_p50": {median(c.serveOverMS), "ms"},
		"serve.rejected":        {float64(c.serveRejected), "count"},
		"setup.wall_s":          {setupWall, "s"},
		"op.wall_s":             {opWall, "s"},
		"trace.overhead_pct":    {pct(median(ps.durs)-plainP50, plainP50), "%"},
	}
	for _, l := range layers {
		m["setup."+l+"_pct"] = metric{pct(setup[l], setupWall), "%"}
		m["op."+l+"_pct"] = metric{pct(op[l], opWall), "%"}
	}
	return m
}

// printLayers prints the layer shares with their bases, and the base of
// every ratio metric.
func printLayers(w io.Writer, name string, m map[string]metric, setupWall float64, ps *passState) {
	fmt.Fprintf(w, "layers of %s (traced): set-up %.3f s once; op %.4f s mean over %d traced ops\n",
		name, setupWall, m["op.wall_s"].Value, ps.ops)
	fmt.Fprintf(w, "  %-8s %9s %9s\n", "layer", "setup_%", "op_%")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-8s %9.1f %9.1f\n", l, m["setup."+l+"_pct"].Value, m["op."+l+"_pct"].Value)
	}
	fmt.Fprintf(w, "bases: synth.steps_per_s over %.3f s of searching; engine.ms_per_cell over %.0f cells; store.hit_ratio over %.0f gets; trace.overhead_pct vs the untraced passes' op p50\n",
		m["synth.s"].Value, m["engine.cells"].Value, m["store.gets"].Value)
}
