package trace

import (
	"fmt"
	"sync"
	"testing"
)

// TestCollectorIsolation is the per-request isolation contract: each
// collector records exactly the spans opened on it, explicitly or via
// its goroutine binding, and nothing from other collectors or the
// global tracer.
func TestCollectorIsolation(t *testing.T) {
	withTracing(t, func() {
		c := NewCollector()
		detach := c.Attach()
		outer := Begin("outer") // routed to c by the binding
		inner := c.Begin("inner")
		Add("work", 5)
		inner.End()
		outer.End()
		detach()
		Begin("global-after").End() // unbound again: lands on the global tree

		snap := c.Snapshot()
		if len(snap.Children) != 1 || snap.Children[0].Name != "outer" {
			t.Fatalf("collector tree = %+v, want one 'outer' root", snap.Children)
		}
		o := snap.Children[0]
		if len(o.Children) != 1 || o.Children[0].Name != "inner" {
			t.Fatalf("outer children = %+v, want [inner]", o.Children)
		}
		if got := o.Children[0].Counter("work"); got != 5 {
			t.Fatalf("inner work counter = %d, want 5", got)
		}
		if snap.Find("global-after") != nil {
			t.Fatal("global span leaked into the collector tree")
		}
		g := Snapshot()
		if g.Find("outer") != nil || g.Find("inner") != nil {
			t.Fatalf("collector spans leaked into the global tree: %+v", g)
		}
		if g.Find("global-after") == nil {
			t.Fatal("post-detach span missing from the global tree")
		}
	})
}

// TestCollectorHammer is the concurrency acceptance check: many
// goroutines, each with its own attached collector, open nested spans
// and counters simultaneously; every collector must end up with exactly
// its own, properly nested tree — no interleaving across goroutines,
// which is precisely what the old single global tree could not provide.
func TestCollectorHammer(t *testing.T) {
	withTracing(t, func() {
		const workers = 16
		const perWorker = 100
		cols := make([]*Collector, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			cols[w] = NewCollector()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				detach := cols[w].Attach()
				defer detach()
				for i := 0; i < perWorker; i++ {
					req := Beginf("req %d-%d", w, i)
					phase := Begin("phase")
					Add("n", 1)
					Append("round", int64(i))
					phase.End()
					req.End()
				}
			}(w)
		}
		wg.Wait()

		for w, c := range cols {
			snap := c.Snapshot()
			if len(snap.Children) != perWorker {
				t.Fatalf("worker %d: %d top-level spans, want %d", w, len(snap.Children), perWorker)
			}
			for i, req := range snap.Children {
				if want := fmt.Sprintf("req %d-%d", w, i); req.Name != want {
					t.Fatalf("worker %d span %d named %q, want %q — trees interleaved", w, i, req.Name, want)
				}
				if len(req.Children) != 1 || req.Children[0].Name != "phase" {
					t.Fatalf("worker %d req %d children = %+v, want one 'phase'", w, i, req.Children)
				}
				ph := req.Children[0]
				if ph.Counter("n") != 1 || len(ph.Series["round"]) != 1 {
					t.Fatalf("worker %d req %d phase carries foreign data: %+v", w, i, ph)
				}
			}
		}
		// Nothing may have leaked onto the global tree.
		if g := Snapshot(); len(g.Children) != 0 {
			t.Fatalf("global tree received %d spans from bound goroutines", len(g.Children))
		}
	})
}

// TestAttachNesting pins the shadowing contract: a second Attach on the
// same goroutine wins until its detach, which restores the first.
func TestAttachNesting(t *testing.T) {
	withTracing(t, func() {
		a, b := NewCollector(), NewCollector()
		da := a.Attach()
		Begin("on-a").End()
		db := b.Attach()
		Begin("on-b").End()
		db()
		Begin("on-a-again").End()
		da()

		as, bs := a.Snapshot(), b.Snapshot()
		if as.Find("on-a") == nil || as.Find("on-a-again") == nil || as.Find("on-b") != nil {
			t.Fatalf("collector a tree wrong: %+v", as.Children)
		}
		if bs.Find("on-b") == nil || len(bs.Children) != 1 {
			t.Fatalf("collector b tree wrong: %+v", bs.Children)
		}
	})
}

// TestCollectorNilAttach pins that Attach on a nil collector — what the
// serving layer does while tracing is off — is a safe no-op that leaves
// spans on the global tree.
func TestCollectorNilAttach(t *testing.T) {
	var nilC *Collector
	nilC.Attach()() // must not panic or bind
	withTracing(t, func() {
		detach := nilC.Attach()
		Begin("still-global").End()
		detach()
		if Snapshot().Find("still-global") == nil {
			t.Fatal("nil-collector Attach diverted spans away from the global tree")
		}
	})
}

// TestCollectorDisabledZeroAlloc extends the zero-cost contract to the
// per-request API: with collection off, the collector span path — the
// exact call pattern of an instrumented request — must not allocate.
func TestCollectorDisabledZeroAlloc(t *testing.T) {
	Enable(false)
	c := NewCollector()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := c.Begin("request")
		sp.Add("bytes", 1)
		c.Add("n", 1)
		c.Append("round", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled collector tracing allocates %v per request, want 0", allocs)
	}
}

// TestCollectorReset pins that Reset empties a collector without
// touching others.
func TestCollectorReset(t *testing.T) {
	withTracing(t, func() {
		a, b := NewCollector(), NewCollector()
		a.Begin("keep").End()
		b.Begin("drop").End()
		b.Reset()
		if got := len(b.Snapshot().Children); got != 0 {
			t.Fatalf("reset collector still holds %d spans", got)
		}
		if a.Snapshot().Find("keep") == nil {
			t.Fatal("reset of one collector emptied another")
		}
	})
}
