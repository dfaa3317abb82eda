package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// scsrFile is one .scsr file of the one-shot workload.
type scsrFile struct {
	name       string
	path       string
	compressed bool
	bytes      int64
	ref        uint64
}

// writeSCSR writes every graph raw and compressed into dir, then reads
// each file once so the timed opens find it in the page cache.
func writeSCSR(dir string, gs []*graph.Graph) ([]scsrFile, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []scsrFile
	for i, spec := range dataset.All() {
		for _, comp := range []bool{false, true} {
			kind := "raw"
			if comp {
				kind = "compressed"
			}
			f := scsrFile{name: spec.Name + "." + kind, compressed: comp}
			f.path = filepath.Join(dir, f.name+".scsr")
			if err := graph.WriteBinaryFile(f.path, gs[i], graph.BinaryOptions{Compress: comp}); err != nil {
				return nil, fmt.Errorf("write %s: %w", f.path, err)
			}
			files = append(files, f)
		}
	}
	for i := range files {
		b, err := os.ReadFile(files[i].path)
		if err != nil {
			return nil, err
		}
		files[i].bytes = int64(len(b))
	}
	return files, nil
}

// runSCSR is the scsr-oneshot workload: the symbreak -file x.scsr -digest
// path, one caller rotating over the analogs written raw and compressed.
// Each op opens the file, solves MIS with the Table I strategy on the
// CPU, verifies, digests and closes.
func runSCSR(cfg config) (*outcome, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("scsr-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var gs []*graph.Graph
	var files []scsrFile
	setup := make([]float64, setupReps)
	build := make([]float64, setupReps)
	write := make([]float64, setupReps)
	for r := range setup {
		t0 := time.Now()
		gs = loadAnalogs(1, cfg.seed)
		t1 := time.Now()
		var err error
		if files, err = writeSCSR(dir, gs); err != nil {
			return nil, err
		}
		t2 := time.Now()
		setup[r], build[r], write[r] = t2.Sub(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	}
	opt := core.Options{Seed: cfg.seed}
	// Raw and compressed files of one graph share its reference, which
	// also checks that both load paths yield the same graph.
	refs, err := refDigests(len(gs), func(i int) (*graph.Graph, core.Problem, core.Options) {
		return gs[i], core.ProblemMIS, opt
	})
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(files))
	for i := range files {
		f := &files[i]
		f.ref = refs[i/2]
		ops[i] = op{name: f.name, run: func(t *opTrace) error { return oneShot(f, opt, t) }}
	}
	// Only the files stay: the timed ops load every graph themselves.
	gs = nil
	dataset.ClearCache()
	runtime.GC()
	return measureClosed(cfg, ops, setup, map[string]float64{
		"dataset.build_s": median(build),
		"graph.write_s":   median(write),
	}), nil
}

// oneShot is one scsr-oneshot op: graph.OpenBinary → core.Solve →
// core.Verify → Result.SolutionDigest → Close.
func oneShot(f *scsrFile, opt core.Options, t *opTrace) error {
	t0 := time.Now()
	bg, err := graph.OpenBinary(f.path)
	open := time.Since(t0)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	serr := solveVerifyDigest(bg.Graph, core.ProblemMIS, opt, f.ref, t)
	t1 := time.Now()
	mapped := bg.Mapped()
	cerr := bg.Close()
	closing := time.Since(t1)
	if t != nil {
		// The open span goes first among the op's children.
		t.span.children = append([]*span{newSpan("graph.OpenBinary", "graph", t0, open)}, t.span.children...)
		t.span.child("BinaryGraph.Close", "graph", t1, closing)
		if f.compressed {
			t.ls.sample("graph.open_comp_ms", ms(open))
			t.ls.sample("graph.decode_mb_per_s", float64(f.bytes)/(1<<20)/open.Seconds())
		} else {
			t.ls.sample("graph.open_raw_ms", ms(open))
		}
		if mapped {
			t.ls.sample("graph.close_ms", ms(closing))
		}
	}
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("close: %w", cerr)
	}
	return nil
}
