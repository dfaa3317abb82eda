package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	// serveRate is the fixed open-loop rate. A 30 s window holds 2160
	// requests, 21 beyond the p99, and 216 of them cold: six full rounds
	// of the 36 (graph, problem) pairs.
	serveRate = 72.0
	// serveScale sizes the corpus. At scale 1 the slowest cold solves
	// took up to 0.7 s, and two of them at once held both connections,
	// so the p99 measured those stalls and changed by a third from seed
	// to seed. At 0.25 the slowest cold solve takes about 0.1 s, less
	// than the gap between cold requests.
	serveScale = 0.25
	// coldEvery makes every tenth request cold: a fresh seed the cache
	// has never seen, so the solver runs. With one in five (1080
	// requests in 30 s), the p99 was the fifth-slowest of about 30 cold
	// solves whose time swings with the solve seed (RAND on rgg-24 took
	// 21–49 ms), and it moved by a quarter from seed to seed. Twice the
	// hits around the same cold stream put the p99 at the middle of those
	// solves instead.
	coldEvery = 10
	// serveSLO is the latency limit from the due time. It is ten times
	// the slowest cold solve, so only queueing or backlog crosses it.
	serveSLO     = time.Second
	serveTimeout = 10 * time.Second
	// maxLateP99 is how far behind schedule the generator may hand on
	// its requests (p99) before the run is marked invalid: beyond it the
	// offered load is no longer the scheduled one.
	maxLateP99 = 50 * time.Millisecond
)

var serveProblems = []struct {
	p    core.Problem
	name string
}{{core.ProblemMM, "mm"}, {core.ProblemColor, "color"}, {core.ProblemMIS, "mis"}}

// solveKey is one (graph, problem, seed) the workload asks for, always
// with the automatic strategy on the CPU and the solution included.
type solveKey struct {
	graph int // index into dataset.All()
	prob  int // index into serveProblems
	seed  uint64
}

func (k solveKey) body() []byte {
	b, _ := json.Marshal(map[string]any{
		"graph":            dataset.All()[k.graph].Name,
		"problem":          serveProblems[k.prob].name,
		"seed":             k.seed,
		"include_solution": true,
	})
	return b
}

// targets lists every (graph, problem) pair in an order drawn from seed.
func targets(seed uint64, salt int64) []solveKey {
	var ks []solveKey
	for g := range dataset.All() {
		for p := range serveProblems {
			ks = append(ks, solveKey{graph: g, prob: p})
		}
	}
	for i := len(ks) - 1; i > 0; i-- {
		j := par.HashRange(seed, salt<<32|int64(i), i+1)
		ks[i], ks[j] = ks[j], ks[i]
	}
	return ks
}

// hotKeys are the requests warmed into the cache during set-up.
func hotKeys(seed uint64) []solveKey {
	ks := targets(seed, 1)
	for i := range ks {
		ks[i].seed = seed
	}
	return ks
}

// coldSeed is the solve seed of cold request k: distinct for every k and
// never the hot seed, so every cold request misses the cache.
func coldSeed(seed uint64, k int) uint64 {
	return seed + 1 + uint64(k)
}

// schedule lays out dur of traffic at serveRate, every coldEvery-th
// request cold. Hot requests rotate over the hot keys in a seeded order. Cold requests come in rounds that each ask
// for every (graph, problem) pair once, in a seeded order, with seeds
// never used before; whole rounds keep the mix of slow and fast solves
// the same from seed to seed. first counts the requests of earlier
// windows, so a second window continues the rounds with fresh seeds.
func schedule(seed uint64, dur time.Duration, first int, hot []solveKey) []request {
	n := int(serveRate * dur.Seconds())
	reqs := make([]request, n)
	pairs := len(dataset.All()) * len(serveProblems)
	var round []solveKey
	nh, nc := 0, (first+coldEvery-1)/coldEvery
	for i := range reqs {
		reqs[i].due = time.Duration(float64(i) / serveRate * float64(time.Second))
		if (first+i)%coldEvery == 0 {
			if round == nil || nc%pairs == 0 {
				round = targets(seed, int64(2+nc/pairs))
			}
			k := round[nc%pairs]
			k.seed = coldSeed(seed, nc)
			reqs[i].key, reqs[i].body, reqs[i].hot = k, k.body(), -1
			nc++
		} else {
			h := nh % len(hot)
			reqs[i].key, reqs[i].body, reqs[i].hot = hot[h], hot[h].body(), h
			nh++
		}
	}
	return reqs
}

// solveReply is the part of a /solve 200 body the oracle reads.
type solveReply struct {
	Graph struct {
		Name string `json:"name"`
	} `json:"graph"`
	Problem  string `json:"problem"`
	Strategy string `json:"strategy"`
	Arch     string `json:"arch"`
	Seed     uint64 `json:"seed"`
	Solution struct {
		Digest string `json:"digest"`
	} `json:"solution"`
}

// record is the part of a /debug/requests entry the benchmark reads.
type record struct {
	ID     string    `json:"id"`
	Start  time.Time `json:"start"`
	WallNs int64     `json:"wall_ns"`
	Cache  string    `json:"cache"`
	Algo   string    `json:"algo"`
	Phases []struct {
		Name  string `json:"name"`
		DurNs int64  `json:"dur_ns"`
	} `json:"phases"`
	Report *struct {
		Rounds   int   `json:"rounds"`
		DecompNs int64 `json:"decomp_ns"`
		SolveNs  int64 `json:"solve_ns"`
	} `json:"report"`
	Problem string `json:"problem"`
}

// server is the daemon under test and what set-up learned about it.
type server struct {
	srv    *httptest.Server
	svc    *serve.Service
	gs     []*graph.Graph
	warm   [][]byte // 200 body of each hot key, as the cache holds it
	client *http.Client
}

// startServer builds the corpus of the twelve analogs, starts
// the service on a loopback listener and warms the hot keys into its
// cache. It returns the server and the time dataset generation took.
func startServer(cfg config, hot []solveKey, recorder int) (*server, time.Duration, error) {
	t0 := time.Now()
	gs := loadAnalogs(serveScale, cfg.seed)
	build := time.Since(t0)
	corpus := serve.NewCorpus()
	for i, spec := range dataset.All() {
		if err := corpus.Add(spec.Name, spec.Class, gs[i]); err != nil {
			return nil, 0, err
		}
	}
	svc := serve.New(serve.Config{Corpus: corpus, Registry: telemetry.NewRegistry(), FlightRecorder: recorder})
	mux := http.NewServeMux()
	svc.Mount(mux)
	s := &server{srv: httptest.NewServer(mux), svc: svc, gs: gs, client: newClient(cfg.conns, serveTimeout)}
	for _, k := range hot {
		var r reply
		send(s.client, s.srv.URL+"/solve", k.body(), &r)
		if r.err != nil || r.status != http.StatusOK {
			s.close()
			return nil, 0, fmt.Errorf("warm-up %s: status %d, %v", k.body(), r.status, r.err)
		}
		s.warm = append(s.warm, r.body)
	}
	return s, build, nil
}

func (s *server) close() {
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// requests fetches the flight recorder's records by request id.
func (s *server) requests() (map[string]record, error) {
	resp, err := s.client.Get(s.srv.URL + "/debug/requests")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Requests []record `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode /debug/requests: %w", err)
	}
	recs := make(map[string]record, len(body.Requests))
	for _, r := range body.Requests {
		recs[r.ID] = r
	}
	return recs, nil
}

// problemNamed and strategyNamed invert core's String methods; -1 means
// no such name.
func problemNamed(name string) core.Problem {
	for _, sp := range serveProblems {
		if sp.p.String() == name {
			return sp.p
		}
	}
	return -1
}

func strategyNamed(name string) core.Strategy {
	for _, st := range gridStrategies {
		if st.String() == name {
			return st
		}
	}
	return -1
}

// parseAnswer maps a 200 body back to the solve it claims to answer.
func parseAnswer(body []byte) (g int, p core.Problem, opt core.Options, digest uint64, err error) {
	var sr solveReply
	if err = json.Unmarshal(body, &sr); err != nil {
		return
	}
	g = -1
	for i, spec := range dataset.All() {
		if spec.Name == sr.Graph.Name {
			g = i
		}
	}
	p, opt.Strategy, opt.Seed = problemNamed(sr.Problem), strategyNamed(sr.Strategy), sr.Seed
	if g < 0 || p < 0 || opt.Strategy < 0 || sr.Arch != core.ArchCPU.String() {
		err = fmt.Errorf("answer names graph %q problem %q strategy %q arch %q", sr.Graph.Name, sr.Problem, sr.Strategy, sr.Arch)
		return
	}
	_, err = fmt.Sscanf(sr.Solution.Digest, "%x", &digest)
	return
}

// checkHot is the output oracle of a hot reply, run as it arrives: the
// body must be byte-identical to the warmed body of its key, whose digest
// matched the reference. The body is dropped once checked.
func (s *server) checkHot(r *reply, h int, hotBad []string) {
	switch {
	case r.err != nil || r.status != http.StatusOK:
		return
	case hotBad[h] != "":
		r.mismatch = hotBad[h]
	case !bytes.Equal(r.body, s.warm[h]):
		r.mismatch = "hot body differs from the warmed body"
	}
	r.body = nil
}

// checkCold is the output oracle of the cold replies, run after the
// window: each must answer the question asked, and its digest must match
// the same solve recomputed in process (core.Solve, Verify,
// SolutionDigest). ls, when non-nil, receives the core timings of those
// recomputations.
func (s *server) checkCold(reqs []request, rs []reply, ls *layerStats) {
	// The recomputations run after the window, so only their core
	// timings are kept; the solver figures come from the served runs.
	oracle := newLayerStats()
	for i := range rs {
		r := &rs[i]
		if reqs[i].hot >= 0 || r.err != nil || r.status != http.StatusOK {
			continue
		}
		g, p, opt, digest, err := parseAnswer(r.body)
		if k := reqs[i].key; err == nil && (g != k.graph || p != serveProblems[k.prob].p || opt.Seed != k.seed) {
			err = fmt.Errorf("answered %s instead of %s", bytes.TrimSpace(r.body[:min(len(r.body), 120)]), reqs[i].body)
		}
		if err == nil {
			var t *opTrace
			if ls != nil {
				t = &opTrace{span: newSpan("oracle", "", time.Now(), 0), ls: oracle}
			}
			err = solveVerifyDigest(s.gs[g], p, opt, digest, t)
		}
		if err != nil {
			r.mismatch = err.Error()
		}
	}
	if ls != nil {
		for _, name := range []string{"core.wrap_ms", "core.verify_ms", "core.digest_ms"} {
			ls.samples[name] = oracle.samples[name]
		}
	}
}

// runServe is the serve-mixed workload: open-loop /solve traffic at a
// fixed rate against the daemon, mostly cache hits with a share of cold
// solves.
func runServe(cfg config) (*outcome, error) {
	hot := hotKeys(cfg.seed)
	reqs := schedule(cfg.seed, cfg.dur, 0, hot)
	recorder := 2*len(reqs) + len(hot) + 64 // every request of both windows of a traced run
	var s *server
	setup := make([]float64, setupReps)
	build := make([]float64, setupReps)
	for r := range setup {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var b time.Duration
		var err error
		if s, b, err = startServer(cfg, hot, recorder); err != nil {
			return nil, err
		}
		setup[r], build[r] = time.Since(t0).Seconds(), b.Seconds()
	}
	defer s.close()

	refs, err := refDigests(len(hot), func(i int) (*graph.Graph, core.Problem, core.Options) {
		return s.gs[hot[i].graph], serveProblems[hot[i].prob].p, core.Options{Seed: hot[i].seed}
	})
	if err != nil {
		return nil, err
	}
	hotBad := make([]string, len(hot))
	for i := range hot {
		_, _, _, digest, err := parseAnswer(s.warm[i])
		switch {
		case err != nil:
			hotBad[i] = "warmed body: " + err.Error()
		case digest != refs[i]:
			hotBad[i] = fmt.Sprintf("warmed digest %016x, reference %016x", digest, refs[i])
		}
	}

	out := &outcome{detail: map[string]any{"rate_per_s": serveRate, "requests_per_window": len(reqs)}}
	w := s.window(cfg, reqs, hotBad, nil, out)
	e2e := endToEnd(&w.window, setup, out.detail)
	if !cfg.traced {
		out.metrics = e2e
		return out, nil
	}
	ls := newLayerStats()
	tw := s.window(cfg, schedule(cfg.seed, cfg.dur, len(reqs), hot), hotBad, ls, out)
	ls.samples["dataset.build_s"] = build
	tw.extra["slo_miss_ratio"] = ratio(float64(w.sloMiss+tw.sloMiss), float64(out.attempted))
	out.traced(e2e, &w.window, &tw.window, ls, tw.extra)
	return out, nil
}

// serveWindow is an open-loop window with the figures only it has.
type serveWindow struct {
	window
	sloMiss int
	extra   map[string]float64 // per-layer figures of a traced window
}

// window runs one open-loop window, checks its outputs, and folds the
// result into out. With ls non-nil the window is traced.
func (s *server) window(cfg config, reqs []request, hotBad []string, ls *layerStats, out *outcome) *serveWindow {
	var p0 par.Stats
	runs0 := s.svc.Snapshot().Runs
	if ls != nil {
		par.EnableStats(true)
		p0 = par.SnapshotStats()
	}
	runtime.GC()
	rssReset := resetPeakRSS()
	a0 := heapAllocated()
	start, rs := openLoop(s.client, s.srv.URL+"/solve", reqs, cfg.conns, func(i int, r *reply) {
		if h := reqs[i].hot; h >= 0 {
			s.checkHot(r, h, hotBad)
		}
	})
	alloc := heapAllocated() - a0
	rss := peakRSSMB()
	runs := s.svc.Snapshot().Runs - runs0
	if ls != nil {
		countPar(ls, p0, par.SnapshotStats())
		par.EnableStats(false)
	}
	s.checkCold(reqs, rs, ls)

	sum := summarize(start, rs, cfg.conns, serveSLO, serveTimeout)
	w := &serveWindow{
		window: window{
			lat: sum.lat, attempted: len(rs), block: coldEvery * len(dataset.All()) * len(serveProblems),
			elapsed: sum.span, allocBytes: alloc, peakRSSMB: rss, rssReset: rssReset,
		},
		sloMiss: sum.sloMiss,
	}
	for i := range rs {
		if why := rs[i].failure(); why != "" {
			w.fail(fmt.Sprintf("request %d", i), why)
		}
	}
	out.add(&w.window)
	out.detail["backlog_s"] = max(0, (sum.span - cfg.dur - serveSLO).Seconds())
	out.detail["loadgen_late_p99"] = sum.late
	if late := time.Duration(sum.late.Value * 1e6); late > maxLateP99 {
		out.invalid = append(out.invalid,
			fmt.Sprintf("generator fell behind its schedule: p99 lateness %v > %v", late, maxLateP99))
	}
	if ls == nil {
		return w
	}

	colds, hits, coalesced := 0, 0, 0
	for i := range rs {
		if reqs[i].hot < 0 {
			colds++
		}
		switch rs[i].cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
	}
	w.extra = map[string]float64{
		"serve.hit_ratio":        ratio(float64(hits), float64(len(rs))),
		"serve.coalesced_ratio":  ratio(float64(coalesced), float64(len(rs))),
		"serve.runs_per_cold":    ratio(float64(runs), float64(colds)),
		"loadgen.late_p99_ms":    sum.late.Value,
		"loadgen.conn_busy_frac": sum.busyFrac,
	}
	recs, err := s.requests()
	if err != nil {
		out.invalid = append(out.invalid, "flight recorder: "+err.Error())
	}
	w.roots = requestSpans(rs, recs, ls)
	return w
}

// requestSpans builds a span per request — the wait for a connection,
// then the HTTP round trip holding the server's own phases from its
// flight-recorder entry — feeds the serve and solver samples, and packs
// the requests into lanes of non-overlapping spans, one trace track each.
func requestSpans(rs []reply, recs map[string]record, ls *layerStats) []*span {
	var lanes []*span
	for i := range rs {
		r := &rs[i]
		req := newSpan(fmt.Sprintf("request %d %s", i, r.cache), "loadgen", r.due, r.done.Sub(r.due))
		req.child("wait for connection", "loadgen", r.due, r.sent.Sub(r.due))
		rt := req.child("POST /solve", "client", r.sent, r.done.Sub(r.sent))
		if rec, ok := recs[r.id]; ok {
			ls.sample("serve.client_ms", ms(rt.dur-time.Duration(rec.WallNs)))
			addServerSpans(rt, rec, ls)
		}
		placed := false
		for _, lane := range lanes {
			last := lane.children[len(lane.children)-1]
			if !req.start.Before(last.start.Add(last.dur)) {
				lane.children = append(lane.children, req)
				placed = true
				break
			}
		}
		if !placed {
			lanes = append(lanes, &span{name: fmt.Sprintf("lane %d", len(lanes)), children: []*span{req}})
		}
	}
	for _, lane := range lanes {
		first, last := lane.children[0], lane.children[len(lane.children)-1]
		lane.start, lane.dur = first.start, last.start.Add(last.dur).Sub(first.start)
	}
	return lanes
}

// addServerSpans hangs the server's record under the round trip: its
// phases back to back, each attributed to the layer that ran it.
func addServerSpans(rt *span, rec record, ls *layerStats) {
	solver := solverLayer(problemNamed(rec.Problem))
	dur := min(time.Duration(rec.WallNs), rt.dur)
	start := rec.Start
	if start.Before(rt.start) {
		start = rt.start
	}
	srv := rt.child("serve "+rec.Cache, "serve", start, dur)
	for _, ph := range rec.Phases {
		layer := "serve"
		switch ph.Name {
		case "decomp":
			layer = "decomp"
		case "solve":
			layer = solver
		case "verify":
			layer = "core"
		}
		srv.then(ph.Name, layer, time.Duration(ph.DurNs))
		switch rec.Cache {
		case "hit":
			ls.sample("serve.hit."+ph.Name+"_ms", ms(time.Duration(ph.DurNs)))
		case "miss":
			ls.sample("serve.miss."+ph.Name+"_ms", ms(time.Duration(ph.DurNs)))
		}
	}
	if rec.Cache != "miss" || rec.Report == nil {
		return
	}
	if d := decompName(strategyNamed(rec.Algo)); d != "" {
		ls.sample("decomp."+d+"_ms", ms(time.Duration(rec.Report.DecompNs)))
	}
	ls.sample(solver+".solve_ms", ms(time.Duration(rec.Report.SolveNs)))
	ls.counts[solver+".rounds"] += int64(rec.Report.Rounds)
}
