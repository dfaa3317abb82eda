// Command perfbench is the repository's benchmark. It drives the
// library from outside, through the public calls of each module, on one
// of three workloads, checks every output against a reference, and
// prints its metrics as one JSON line:
//
//	go run . -workload grid -seed 1 -seconds 30 -trace 0
//
// -trace 0 measures the end-to-end metrics with tracing off; -trace 1
// runs an untraced window and then a traced one, reports the per-layer
// metrics and the tracing overhead, and writes the traced window's spans
// as a Chrome trace-event file under -workdir. README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/par"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	workDir  string
	conns    int
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	// invalid lists reasons the figures cannot be trusted even though
	// every output was correct (an open-loop generator behind schedule).
	invalid []string
	errs    []string
	metrics metrics
	detail  map[string]any
	roots   []*span
}

// add folds a window's op counts and failures into the outcome.
func (out *outcome) add(w *window) {
	out.attempted += w.attempted
	out.failed += w.failed
	out.errs = append(out.errs, w.errs...)
}

// traced completes the outcome of a traced run from its untraced window
// w and traced window tw: the tracing overhead, the failure ratio over
// both windows, and the per-layer report.
func (out *outcome) traced(untraced metrics, w, tw *window, ls *layerStats, extra map[string]float64) {
	extra["fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	extra["trace.ops_per_s"] = tw.opsPerSec()
	extra["trace.ops_per_s_delta"] = tw.opsPerSec() - w.opsPerSec()
	out.detail["untraced"] = untraced
	out.roots = tw.roots
	out.metrics = layerReport(ls, tw.roots, tw.attempted, extra, out.detail)
}

var workloads = map[string]func(config) (*outcome, error){
	"grid":         runGrid,
	"scsr-oneshot": runSCSR,
	"serve-mixed":  runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "grid, scsr-oneshot or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed window")
	traced := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for set-up files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload grid|scsr-oneshot|serve-mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	// Every worker count stays within the host's CPUs: GOMAXPROCS, the
	// par workers and the client connections.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	par.SetWorkers(procs)
	os.Unsetenv(dataset.CacheDirEnv) // inputs are generated, never read from a cache

	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		workDir:  *workDir,
		conns:    min(2, procs),
	}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	prov := hostFacts(cfg.workload, cfg.seed)
	if cfg.workload == "serve-mixed" {
		prov.Conns = cfg.conns
	}
	if cfg.traced {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeChromeTrace(path, out.roots); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		out.detail["chrome_trace"] = path
	}
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "perfbench: failed op: %s\n", e)
	}
	for _, r := range out.invalid {
		fmt.Fprintf(stderr, "perfbench: run invalid: %s\n", r)
	}
	out.detail["invalid"] = out.invalid
	if err := printResult(stdout, prov, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printResult writes the provenance and detail line, then the result
// line the contract reads: the last line of standard output.
func printResult(w io.Writer, prov provenance, out *outcome) error {
	detail, err := json.Marshal(map[string]any{"provenance": prov, "detail": out.detail})
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0 && len(out.invalid) == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, result)
	return err
}

// endToEnd fills the end-to-end metrics of an untraced window and the
// evidence behind them.
func endToEnd(w *window, setup []float64, detail map[string]any) metrics {
	m := metrics{}
	p50, p99 := w.latencies()
	m.set("ops_per_s", w.opsPerSec(), "1/s")
	m.set("latency_p50_ms", p50, "ms")
	m.set("latency_p99_ms", p99.Value, "ms")
	m.set("setup_s", median(setup), "s")
	m.set("alloc_mb_per_op", ratio(float64(w.allocBytes)/(1<<20), float64(w.attempted)), "MiB")
	m.set("peak_rss_mb", w.peakRSSMB, "MiB")
	detail["latency_p99"] = p99
	detail["setup_s_samples"] = setup
	detail["window_s"] = w.elapsed.Seconds()
	detail["peak_rss_window_only"] = w.rssReset
	return m
}

// measureClosed times ops in a closed loop and builds the outcome: the
// end-to-end metrics untraced, or — traced — an untraced window followed
// by a traced one and the per-layer metrics.
func measureClosed(cfg config, ops []op, setup []float64, extra map[string]float64) *outcome {
	out := &outcome{detail: map[string]any{"ops_per_pass": len(ops)}}
	w := closedLoop(cfg.workload, ops, cfg.dur, nil)
	out.add(w)
	e2e := endToEnd(w, setup, out.detail)
	if !cfg.traced {
		out.metrics = e2e
		return out
	}
	ls := newLayerStats()
	par.EnableStats(true)
	tw := closedLoop(cfg.workload, ops, cfg.dur, ls)
	par.EnableStats(false)
	out.add(tw)
	out.traced(e2e, w, tw, ls, extra)
	return out
}

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json gives them. Every traced run reports all of them; a
// layer the workload does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"graph.open_comp_ms", "ms"}, {"graph.decode_mb_per_s", "MiB/s"},
	{"graph.open_raw_ms", "ms"}, {"graph.close_ms", "ms"},
	{"core.verify_ms", "ms"}, {"core.digest_ms", "ms"}, {"core.wrap_ms", "ms"},
	{"decomp.bridge_ms", "ms"}, {"decomp.rand_ms", "ms"}, {"decomp.degk_ms", "ms"}, {"decomp.mpx_ms", "ms"},
	{"matching.solve_ms", "ms"}, {"matching.rounds", "count"}, {"matching.alloc_mb", "MiB"},
	{"coloring.solve_ms", "ms"}, {"coloring.rounds", "count"}, {"coloring.alloc_mb", "MiB"},
	{"mis.solve_ms", "ms"}, {"mis.rounds", "count"}, {"mis.alloc_mb", "MiB"},
	{"bsp.launches", "count"}, {"bsp.threads", "count"}, {"bsp.kernel_ms", "ms"}, {"bsp.ns_per_launch", "ns"},
	{"par.tasks", "count"}, {"par.seq_loops", "count"}, {"par.chunks", "count"}, {"par.steals", "count"},
	{"par.pooled_ratio", "ratio"},
	{"serve.hit.parse_ms", "ms"}, {"serve.hit.lookup_ms", "ms"}, {"serve.hit.write_ms", "ms"}, {"serve.client_ms", "ms"},
	{"serve.miss.queue_ms", "ms"}, {"serve.miss.decomp_ms", "ms"}, {"serve.miss.solve_ms", "ms"},
	{"serve.miss.verify_ms", "ms"}, {"serve.miss.finalize_ms", "ms"},
	{"serve.hit_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"}, {"serve.runs_per_cold", "ratio"},
	{"dataset.build_s", "s"}, {"graph.write_s", "s"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.conn_busy_frac", "ratio"},
	{"fail_ratio", "ratio"}, {"slo_miss_ratio", "ratio"},
	{"trace.ops_per_s", "1/s"}, {"trace.ops_per_s_delta", "1/s"},
	{"self.bench_ms", "ms"}, {"self.loadgen_ms", "ms"}, {"self.client_ms", "ms"}, {"self.graph_ms", "ms"},
	{"self.core_ms", "ms"}, {"self.decomp_ms", "ms"}, {"self.matching_ms", "ms"}, {"self.coloring_ms", "ms"},
	{"self.mis_ms", "ms"}, {"self.bsp_ms", "ms"}, {"self.serve_ms", "ms"},
}

// layerReport turns a traced window's observations into the per-layer
// metrics: medians of per-call samples, deterministic counts, ratios,
// the figures in extra, and each layer's self time per op.
func layerReport(ls *layerStats, roots []*span, ops int, extra map[string]float64, detail map[string]any) metrics {
	self := map[string]time.Duration{}
	for _, r := range roots {
		addSelfTimes(r, self)
	}
	for _, l := range layers {
		extra["self."+l+"_ms"] = ms(self[l]) / float64(max(ops, 1))
	}
	c := ls.counts
	extra["par.pooled_ratio"] = ratio(float64(c["par.tasks"]), float64(c["par.tasks"]+c["par.seq_loops"]))
	extra["bsp.ns_per_launch"] = ratio(ls.sums["bsp.kernel_ns"], ls.sums["bsp.launches"])

	m := metrics{}
	n := map[string]int{}
	for _, lm := range layerMetrics {
		var v float64
		if x, ok := extra[lm.name]; ok {
			v = x
		} else if s, ok := ls.samples[lm.name]; ok {
			v = median(s)
			n[lm.name] = len(s)
		} else {
			v = float64(c[lm.name])
		}
		m.set(lm.name, v, lm.unit)
	}
	detail["samples_per_median"] = n
	detail["counts"] = c
	detail["traced_ops"] = ops
	return m
}
