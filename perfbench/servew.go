package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netsmith"
	"netsmith/internal/exp"
	"netsmith/internal/expert"
	"netsmith/internal/layout"
	"netsmith/internal/serve"
	"netsmith/internal/sim"
	"netsmith/internal/store"
	"netsmith/internal/synth"
	"netsmith/internal/topo"
	"netsmith/internal/traffic"
)

// matrixRates is the serve and netbench default matrix rate grid.
var matrixRates = []float64{0.02, 0.08, 0.14}

// smokeMatrix is the smoke-fidelity {uniform, transpose} x matrixRates
// matrix netbench -matrix -smoke runs, over the given setups.
func smokeMatrix(g *layout.Grid, setups []*sim.Setup, seed int64) (sim.MatrixConfig, error) {
	reg, env := traffic.Default(), traffic.GridEnv(g)
	mc := sim.MatrixConfig{Setups: setups, Rates: matrixRates, Seed: seed}
	for _, name := range []string{"uniform", "transpose"} {
		mc.Patterns = append(mc.Patterns, sim.RegistryFactory(reg, name, env, nil))
	}
	return mc, sim.ApplyFidelity(&mc.Base, sim.FidelitySmoke)
}

// servePoll is the client's completion poll interval. It floors every
// job's latency, so it sits well below the shortest job (a store read
// of a few milliseconds) instead of the client's 150 ms default.
const servePoll = 5 * time.Millisecond

// serveKinds name the four jobs of one serve-4x5 op, in order.
var serveKinds = []string{"synth-warm", "pareto-warm", "matrix-warm", "matrix-cold"}

type serveInst struct {
	dir     string
	st      *store.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	httpc   *http.Client
	client  *netsmith.Client
	g       *layout.Grid
	synths  []serve.SynthRequest
	wantSyn [][]byte
	pareto  serve.ParetoRequest
	wantPar []byte
	warms   []serve.MatrixRequest
	wantMat [][]byte
	cycle   []*topo.Topology
	lat     [][]float64 // per kind, seconds

	// Traced runs only: the store objects before the op, the last job
	// ID seen, and per traced op of the first K its cold seed, derived
	// store gets and new objects, for the standalone re-runs.
	objsBefore map[string]int64
	lastJob    string
	opLat      [4]float64
	traced     []servedOp
	scratch    *store.Store // Put target of the standalone store calls
}

type servedOp struct {
	k        int // input of the op's warm jobs
	coldSeed int64
	gets     int
	blobs    []string
	coldJSON []byte
}

// coldSeed is op i's fresh matrix seed. It does not cycle: a cycled
// seed would be a store hit from the second pass on.
func coldSeed(seed int64, i int) int64 { return derive(seed, 1<<20+i) }

func (s *serveInst) matrixReq(seed int64) serve.MatrixRequest {
	return serve.MatrixRequest{
		Grid: "4x5", Topos: []string{"mesh", "ns"}, Patterns: []string{"uniform", "transpose"},
		Rates: matrixRates, Fidelity: sim.FidelitySmoke, Seed: &seed, Shards: 1,
	}
}

func setupServe(r *runner) (instance, error) {
	s := &serveInst{g: layout.Grid4x5, lat: make([][]float64, len(serveKinds))}
	var err error
	if s.dir, err = os.MkdirTemp(r.workDir, "store-"); err != nil {
		return nil, err
	}
	if s.st, err = store.Open(s.dir); err != nil {
		s.close()
		return nil, err
	}
	if err := r.tr.do("serve", "serve.New", func() (err error) {
		s.srv, err = serve.New(serve.Config{Store: s.st})
		return err
	}); err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.httpc = &http.Client{Timeout: time.Minute, Transport: &http.Transport{}}
	if s.client, err = netsmith.NewClient(netsmith.WithServer(s.url),
		netsmith.WithPollInterval(servePoll), netsmith.WithHTTPClient(s.httpc)); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmStore(r); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmStore executes the warm templates in-process into the store and
// keeps their bytes; served warm results must equal them. Synth and
// matrix templates cycle over the K inputs, so the warm jobs' Prepare
// cost is averaged over K designs rather than fixed by one seed.
func (s *serveInst) warmStore(r *runner) error {
	ctx := context.Background()
	for k := 0; k < r.k; k++ {
		req := serve.SynthRequest{Grid: "4x5", Class: "medium", Objective: "latop",
			Seed: derive(r.seed, k), Iterations: 20000, Restarts: 4}
		var res *serve.SynthResult
		if err := r.tr.do("serve", "serve.ExecuteSynth", func() (err error) {
			res, _, err = serve.ExecuteSynth(s.st, req)
			return err
		}); err != nil {
			return err
		}
		t, err := decodeDesign(res)
		if err != nil {
			return err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		s.synths, s.wantSyn, s.cycle = append(s.synths, req), append(s.wantSyn, b), append(s.cycle, t)

		warm := s.matrixReq(derive(r.seed, k))
		var mat *serve.MatrixJobResult
		if err := r.tr.do("serve", "serve.ExecuteMatrix", func() (err error) {
			mat, _, err = serve.ExecuteMatrix(ctx, s.st, warm, nil)
			return err
		}); err != nil {
			return err
		}
		if err := checkMatrix(mat.Matrix); err != nil {
			return err
		}
		if b, err = json.Marshal(mat.Matrix); err != nil {
			return err
		}
		s.warms, s.wantMat = append(s.warms, warm), append(s.wantMat, b)
	}
	sd := setupSeed(r.seed)
	s.pareto = serve.ParetoRequest{Grid: "4x5", EnergyWeights: []float64{0, 1}, Rates: []float64{0.02, 0.08},
		Fidelity: sim.FidelitySmoke, Seed: &sd, SynthIterations: 5000}
	var par *serve.ParetoJobResult
	if err := r.tr.do("serve", "serve.ExecutePareto", func() (err error) {
		par, _, err = serve.ExecutePareto(ctx, s.st, s.pareto, nil)
		return err
	}); err != nil {
		return err
	}
	if err := checkFrontier(par.Frontier); err != nil {
		return err
	}
	var err error
	s.wantPar, err = json.Marshal(par.Frontier)
	return err
}

func decodeDesign(res *serve.SynthResult) (*topo.Topology, error) {
	var t topo.Topology
	if err := json.Unmarshal(res.Topology, &t); err != nil {
		return nil, fmt.Errorf("decode served design: %w", err)
	}
	return &t, checkDesign(&t)
}

// checkFrontier requires that no kept point is dominated by another.
func checkFrontier(fr *exp.Frontier) error {
	for i, a := range fr.Points {
		for j, b := range fr.Points {
			if i != j && b.Metrics().Dominates(a.Metrics()) {
				return fmt.Errorf("frontier point %d is dominated by point %d", i, j)
			}
		}
	}
	return nil
}

// job times one client call and files its latency under kind q.
func (s *serveInst) job(r *runner, q int, name string, f func() error) error {
	start := time.Now()
	err := r.tr.do("serve", name, f)
	d := time.Since(start).Seconds()
	if err != nil {
		if r.counting() && (strings.Contains(err.Error(), "(queue_full)") ||
			strings.Contains(err.Error(), "(shed_low_priority)") || strings.Contains(err.Error(), "(rate_limited)")) {
			r.c.serveRejected++
		}
		return fmt.Errorf("%s job: %w", serveKinds[q], err)
	}
	s.lat[q] = append(s.lat[q], d)
	s.opLat[q] = d
	return nil
}

// op i is one closed-loop block of four served jobs, each waited to
// completion: warm synth and warm matrix (templates i mod K), warm
// pareto and a cold matrix with a fresh seed.
func (s *serveInst) op(r *runner, i int) (opResult, error) {
	ctx := context.Background()
	k := i % r.k
	var cycled bytes.Buffer
	var syn *netsmith.SynthJobResult
	var synHit bool
	if err := s.job(r, 0, "netsmith.Client.Synth", func() (err error) {
		syn, synHit, err = s.client.Synth(ctx, s.synths[k])
		return err
	}); err != nil {
		return opResult{}, err
	}
	if err := sameBytes("warm synth", syn, s.wantSyn[k], synHit, &cycled); err != nil {
		return opResult{}, err
	}
	var par *netsmith.ParetoJobOutcome
	var parHit bool
	if err := s.job(r, 1, "netsmith.Client.Pareto", func() (err error) {
		par, parHit, err = s.client.Pareto(ctx, s.pareto)
		return err
	}); err != nil {
		return opResult{}, err
	}
	if err := sameBytes("warm pareto", par.Frontier, s.wantPar, parHit, &cycled); err != nil {
		return opResult{}, err
	}
	if err := checkFrontier(par.Frontier); err != nil {
		return opResult{}, err
	}
	var warm, cold *netsmith.MatrixJobOutcome
	var warmHit bool
	if err := s.job(r, 2, "netsmith.Client.Matrix", func() (err error) {
		warm, warmHit, err = s.client.Matrix(ctx, s.warms[k])
		return err
	}); err != nil {
		return opResult{}, err
	}
	if err := sameBytes("warm matrix", warm.Matrix, s.wantMat[k], warmHit, &cycled); err != nil {
		return opResult{}, err
	}
	cs := coldSeed(r.seed, i)
	if err := s.job(r, 3, "netsmith.Client.Matrix", func() (err error) {
		cold, _, err = s.client.Matrix(ctx, s.matrixReq(cs))
		return err
	}); err != nil {
		return opResult{}, err
	}
	if err := checkMatrix(cold.Matrix); err != nil {
		return opResult{}, err
	}
	fresh, err := json.Marshal(cold.Matrix)
	if err != nil {
		return opResult{}, err
	}
	if r.counting() {
		r.c.serveJobs += 4
		// Store reads, derived from the job results: a warm synth job
		// and a cached frontier are one read each; a matrix job reads
		// its ns synthesis and every cell.
		gets := 1 + 1 + (1 + warm.Stats.Cells) + (1 + cold.Stats.Cells)
		hits := 1 + 1 + (1 + warm.Stats.CacheHits) + cold.Stats.CacheHits
		if cold.SynthCacheHit {
			hits++
		}
		r.c.storeGets += gets
		r.c.storeHits += hits
		if len(s.traced) < r.k {
			s.traced = append(s.traced, servedOp{k: k, coldSeed: cs, gets: gets, coldJSON: fresh})
		}
	}
	return opResult{cycled: cycled.Bytes(), fresh: fresh}, nil
}

// sameBytes checks a served warm result against the in-process bytes
// and that the job was a store hit, then appends the bytes to out.
func sameBytes(what string, v any, want []byte, hit bool, out *bytes.Buffer) error {
	got, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served bytes differ from the in-process result", what)
	}
	if !hit {
		return fmt.Errorf("%s: job missed the store", what)
	}
	out.Write(got)
	return nil
}

// objects lists the store's object files and their sizes.
func (s *serveInst) objects() (map[string]int64, error) {
	out := map[string]int64{}
	err := filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = info.Size()
		return nil
	})
	return out, err
}

// traceHook runs around each traced op, outside its timed region: it
// observes the objects the op wrote and fetches the four job envelopes
// for server-side execution time.
func (s *serveInst) traceHook(r *runner, i int, after bool) error {
	objs, err := s.objects()
	if err != nil {
		return err
	}
	if !after {
		s.objsBefore = objs
		return nil
	}
	var blobs []string
	for path, size := range objs {
		if _, ok := s.objsBefore[path]; !ok {
			blobs = append(blobs, path)
			r.c.storePuts++
			r.c.storeBytes += size
		}
	}
	if n := len(s.traced); n > 0 && s.traced[n-1].blobs == nil {
		s.traced[n-1].blobs = blobs
		// Re-run the op's nested calls right away, so they see the same
		// machine state as the op did.
		r.tr.standalone, r.tr.carve = true, "serve"
		err := s.rerun(r, s.traced[n-1])
		r.tr.standalone, r.tr.carve = false, ""
		if err != nil {
			return err
		}
	}
	resp, err := s.httpc.Get(s.url + "/v1/jobs?after=" + s.lastJob)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return err
	}
	if len(list.Jobs) < len(serveKinds) {
		return fmt.Errorf("job listing returned %d jobs, want %d", len(list.Jobs), len(serveKinds))
	}
	jobs := list.Jobs[len(list.Jobs)-len(serveKinds):]
	for q, j := range jobs {
		r.c.serveExecMS = append(r.c.serveExecMS, float64(j.ElapsedMS))
		r.c.serveOverMS = append(r.c.serveOverMS, 1000*s.opLat[q]-float64(j.ElapsedMS))
	}
	s.lastJob = jobs[len(jobs)-1].ID
	return nil
}

// standalone reports how many traced ops traceHook re-ran.
func (s *serveInst) standalone(r *runner) (int, error) { return len(s.traced), nil }

// rerun re-runs the public calls a traced op's served jobs made inside
// the server, on the same inputs: the cold job's synthesis, all four
// Prepares, the cold matrix and the op's store reads and writes. Their
// time is carved out of serve.
func (s *serveInst) rerun(r *runner, op servedOp) error {
	if s.scratch == nil {
		var err error
		if s.scratch, err = store.Open(filepath.Join(s.dir, "scratch")); err != nil {
			return err
		}
	}
	warmSeed := *s.warms[op.k].Seed
	warmNS, ok := synth.Probe(s.st, synth.MatrixNSConfig(s.g, layout.Medium, 0, 0, warmSeed, 20000, 0, 0))
	if !ok {
		return errors.New("warm ns design missing from the store")
	}
	mesh := expert.Mesh(s.g)
	if _, err := r.prepare(mesh, sim.UseNDBT, warmSeed); err != nil {
		return err
	}
	if _, err := r.prepare(warmNS.Topology, sim.UseMCLB, warmSeed); err != nil {
		return err
	}
	res, err := r.synthesize(synth.MatrixNSConfig(s.g, layout.Medium, 0, 0, op.coldSeed, 20000, 0, 0))
	if err != nil {
		return err
	}
	ms, err := r.prepare(mesh, sim.UseNDBT, op.coldSeed)
	if err != nil {
		return err
	}
	ns, err := r.prepare(res.Topology, sim.UseMCLB, op.coldSeed)
	if err != nil {
		return err
	}
	// Split the cold Prepares into routing and VC assignment; these
	// calls only divide routing time, so they carve nothing.
	r.tr.carve = ""
	err = r.routeAndAssign(mesh, sim.UseNDBT, op.coldSeed)
	if err == nil {
		err = r.routeAndAssign(res.Topology, sim.UseMCLB, op.coldSeed)
	}
	r.tr.carve = "serve"
	if err != nil {
		return err
	}
	mc, err := smokeMatrix(s.g, []*sim.Setup{ms, ns}, op.coldSeed)
	if err != nil {
		return err
	}
	m, err := r.matrix(mc)
	if err != nil {
		return err
	}
	if got, err := json.Marshal(m); err != nil || !bytes.Equal(got, op.coldJSON) {
		return errors.New("standalone cold matrix differs from the served one")
	}
	return s.storeCalls(r, op)
}

// storeCalls times the op's store traffic: one Get per derived read,
// cycling over the objects the op wrote (cells and a synthesis result,
// the kinds every matrix job reads), and one Put per object written.
func (s *serveInst) storeCalls(r *runner, op servedOp) error {
	type entry struct {
		Key struct {
			Kind    string          `json:"kind"`
			Schema  int             `json:"schema"`
			Payload json.RawMessage `json:"payload"`
		} `json:"key"`
		Value json.RawMessage `json:"value"`
	}
	var keys []store.Key
	var vals []json.RawMessage
	for _, path := range op.blobs {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e entry
		if err := json.Unmarshal(b, &e); err != nil {
			return err
		}
		keys = append(keys, store.Key{Kind: e.Key.Kind, Schema: e.Key.Schema, Payload: e.Key.Payload})
		vals = append(vals, e.Value)
	}
	if len(keys) == 0 {
		return errors.New("cold job wrote no store objects")
	}
	for g := 0; g < op.gets; g++ {
		k := keys[g%len(keys)]
		var out json.RawMessage
		start := time.Now()
		var hit bool
		if err := r.tr.do("store", "store.Get", func() (err error) {
			hit, err = s.st.Get(k, &out)
			return err
		}); err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("standalone store.Get missed a %s object the op wrote", k.Kind)
		}
		r.c.storeGetMS = append(r.c.storeGetMS, 1000*time.Since(start).Seconds())
	}
	for j, k := range keys {
		start := time.Now()
		if err := r.tr.do("store", "store.Put", func() error { return s.scratch.Put(k, vals[j]) }); err != nil {
			return err
		}
		r.c.storePutMS = append(r.c.storePutMS, 1000*time.Since(start).Seconds())
	}
	return nil
}

func (s *serveInst) designs() []*topo.Topology { return s.cycle }

func (s *serveInst) report(w io.Writer) {
	for q, kind := range serveKinds {
		fmt.Fprintf(w, "serve: %s p50_ms=%.2f over %d jobs\n", kind, 1000*median(s.lat[q]), len(s.lat[q]))
	}
}

func (s *serveInst) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}
