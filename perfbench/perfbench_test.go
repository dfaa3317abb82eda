package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, beyond int
		resolved  bool
	}{{100, 1, false}, {500, 5, false}, {999, 9, false}, {1000, 10, true}, {2000, 20, true}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: percentile must sort a copy
		}
		p := percentile(xs, 0.99)
		if p.Beyond != tc.beyond || p.Resolved != tc.resolved || p.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want beyond %d resolved %v", tc.n, p, tc.beyond, tc.resolved)
		}
		if want := float64(tc.n - tc.beyond); p.Value != want {
			t.Errorf("n=%d: p99 = %v, want %v", tc.n, p.Value, want)
		}
		if xs[0] != float64(tc.n) {
			t.Fatalf("percentile reordered its input")
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A burst that slows one pass of a closed loop moves neither the
// latencies nor the throughput, which rest on each op's median.
func TestClosedLoopFiguresIgnoreABurst(t *testing.T) {
	calm := &window{attempted: 6, byOp: [][]float64{{2, 2, 2}, {8, 8, 8}}}
	burst := &window{attempted: 6, byOp: [][]float64{{2, 20, 2}, {8, 80, 8}}}
	for _, w := range []*window{calm, burst} {
		p50, p99 := w.latencies()
		if p50 != 5 || p99.Value != 8 || p99.Repeats != 3 || p99.Resolved {
			t.Errorf("%v: p50 %v, p99 %+v; want 5, 8 over 3 repeats, unresolved", w.byOp, p50, p99)
		}
		if ops := w.opsPerSec(); ops != 200 {
			t.Errorf("%v: %v ops/s, want 2 ops per 10 ms pass = 200", w.byOp, ops)
		}
	}
	if _, p99 := (&window{byOp: [][]float64{make([]float64, 10), make([]float64, 10)}}).latencies(); !p99.Resolved {
		t.Errorf("slowest op ran 10 times: p99 %+v, want resolved", p99)
	}
	failed := &window{attempted: 6, failed: 3, byOp: calm.byOp}
	if ops := failed.opsPerSec(); ops != 100 {
		t.Errorf("half the ops failed: %v ops/s, want 100", ops)
	}
}

// An open loop's p99 is the median of its blocks' p99s, so one slow
// block does not set it.
func TestBlockPercentileIsMedianOfBlocks(t *testing.T) {
	var xs []float64
	for b, top := range []float64{10, 500, 12} {
		for i := range 100 {
			xs = append(xs, float64(i%10))
		}
		xs[b*100+98], xs[b*100+99] = top, top
	}
	p := blockPercentile(append(xs, 1000), 100, 0.99)
	if p.Value != 12 || p.Blocks != 3 || p.Samples != 300 || p.Beyond != 3 {
		t.Errorf("got %+v, want 12 over 3 blocks of 100 (the remainder left out)", p)
	}
	if one := blockPercentile(xs[:150], 100, 0.99); one.Blocks != 0 || one.Samples != 150 {
		t.Errorf("fewer than two blocks: got %+v, want a plain percentile", one)
	}
	if none := blockPercentile(xs, 0, 0.99); none.Blocks != 0 || none.Samples != 300 {
		t.Errorf("no block size: got %+v, want a plain percentile", none)
	}
}

func TestWaitUntilNeverReturnsEarly(t *testing.T) {
	for _, d := range []time.Duration{0, spinAhead / 2, 3 * spinAhead} {
		due := time.Now().Add(d)
		waitUntil(due)
		if now := time.Now(); now.Before(due) {
			t.Errorf("waitUntil(now+%v) returned %v early", d, due.Sub(now))
		}
	}
}

func TestDueTimeLatencyIncludesConnectionWait(t *testing.T) {
	const hold = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
	}))
	defer srv.Close()
	// Three requests due at once over one connection: each waits for the
	// ones before it, and that wait must show in its latency.
	reqs := make([]request, 3)
	_, rs := openLoop(newClient(1, time.Second), srv.URL, reqs, 1, nil)
	for i, r := range rs {
		if r.failed() {
			t.Fatalf("request %d failed: %v status %d", i, r.err, r.status)
		}
		if min := time.Duration(i+1) * hold; r.latency() < min {
			t.Errorf("request %d: latency %v from due time, want ≥ %v", i, r.latency(), min)
		}
		if rt := r.done.Sub(r.sent); r.latency()-rt < time.Duration(i)*hold {
			t.Errorf("request %d: latency %v does not include the %v it waited for a connection", i, r.latency(), r.sent.Sub(r.due))
		}
	}
}

func TestRejectionsAndTransportErrorsFailAndMissSLO(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/429":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/503":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	defer srv.Close()
	client := newClient(1, time.Second)
	for _, tc := range []struct {
		path   string
		failed bool
	}{{"/429", true}, {"/503", true}, {"/drop", true}, {"/ok", false}} {
		start, rs := openLoop(client, srv.URL+tc.path, make([]request, 1), 1, nil)
		if got := rs[0].failed(); got != tc.failed {
			t.Errorf("%s: failed = %v, want %v (status %d, err %v)", tc.path, got, tc.failed, rs[0].status, rs[0].err)
		}
		if tc.path == "/drop" && rs[0].err == nil {
			t.Errorf("/drop: want a transport error, got status %d", rs[0].status)
		}
		sum := summarize(start, rs, 1, time.Hour, 5*time.Second)
		wantFail := 0
		if tc.failed {
			wantFail = 1
		}
		if sum.failed != wantFail || sum.sloMiss != wantFail || sum.ok != 1-wantFail {
			t.Errorf("%s: summary %+v, want %d failed and SLO misses despite a one-hour limit", tc.path, sum, wantFail)
		}
		if tc.failed && sum.lat[0] < 5000 {
			t.Errorf("%s: failed request latency %v ms, want at least the 5 s timeout", tc.path, sum.lat[0])
		}
	}
}

func TestWrongReferenceDigestFailsOp(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0}})
	opt := core.Options{Strategy: core.StrategyDegk, Seed: 7}
	refs, err := refDigests(1, func(int) (*graph.Graph, core.Problem, core.Options) { return g, core.ProblemMIS, opt })
	if err != nil {
		t.Fatal(err)
	}
	good := op{name: "good", run: func(tr *opTrace) error { return solveVerifyDigest(g, core.ProblemMIS, opt, refs[0], tr) }}
	bad := op{name: "bad", run: func(tr *opTrace) error { return solveVerifyDigest(g, core.ProblemMIS, opt, refs[0]^1, tr) }}
	for _, ls := range []*layerStats{nil, newLayerStats()} {
		w := closedLoop("t", []op{good, bad}, 0, ls)
		if w.attempted != 2 || w.failed != 1 {
			t.Fatalf("traced=%v: attempted %d failed %d, want 2 and 1", ls != nil, w.attempted, w.failed)
		}
		if len(w.errs) != 1 || !strings.HasPrefix(w.errs[0], "bad: digest") {
			t.Errorf("errs = %q, want the bad op's digest mismatch", w.errs)
		}
	}
}

func TestScheduleIsSeededWithWholeColdRounds(t *testing.T) {
	hot := hotKeys(9)
	a := schedule(9, 30*time.Second, 0, hot)
	b := schedule(9, 30*time.Second, 0, hot)
	if len(a) != int(30*serveRate) {
		t.Fatalf("%d requests, want %d", len(a), int(30*serveRate))
	}
	// A 30 s window holds whole rounds of cold requests: every pair
	// equally often.
	perPair := map[solveKey]int{}
	for _, r := range a {
		if r.hot < 0 {
			perPair[solveKey{graph: r.key.graph, prob: r.key.prob}]++
		}
	}
	for k, n := range perPair {
		if n != 6 || len(perPair) != len(hot) {
			t.Fatalf("pair %+v asked %d times cold over %d pairs, want 6 over %d", k, n, len(perPair), len(hot))
		}
	}
	seen := map[uint64]bool{}
	for i := range a {
		if string(a[i].body) != string(b[i].body) || a[i].due != b[i].due {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		if i%coldEvery == 0 {
			cold := 0
			for _, r := range a[i : i+coldEvery] {
				if r.hot < 0 {
					cold++
				}
			}
			if cold != 1 {
				t.Fatalf("block at %d has %d cold requests, want 1", i, cold)
			}
		}
		if a[i].hot < 0 {
			if s := a[i].key.seed; s == 9 || seen[s] {
				t.Fatalf("cold request %d reuses seed %d", i, s)
			}
			seen[a[i].key.seed] = true
		}
	}
	next := schedule(9, 30*time.Second, len(a), hot)
	for _, r := range next {
		if r.hot < 0 && seen[r.key.seed] {
			t.Fatalf("second window reuses cold seed %d", r.key.seed)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	root := newSpan("op", "bench", t0, 10*time.Millisecond)
	solve := root.child("solve", "core", t0, 8*time.Millisecond)
	solve.then("decomp", "decomp", 3*time.Millisecond)
	solve.then("solver", "mis", 4*time.Millisecond)
	acc := map[string]time.Duration{}
	addSelfTimes(root, acc)
	want := map[string]time.Duration{"bench": 2 * time.Millisecond, "core": time.Millisecond, "decomp": 3 * time.Millisecond, "mis": 4 * time.Millisecond}
	for k, v := range want {
		if acc[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, acc[k], v)
		}
	}
	if got := solve.children[1].start; !got.Equal(t0.Add(3 * time.Millisecond)) {
		t.Errorf("then placed the solver at %v, want right after decomp", got)
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), the benchmark reports %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	e2e := endToEnd(&window{lat: []float64{1}, attempted: 1}, []float64{1}, map[string]any{})
	if len(e2e) != len(spec.EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s): the benchmark reports %+v", m.Name, m.Unit, got)
		}
	}
}
