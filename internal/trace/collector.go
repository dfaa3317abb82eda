package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Collector is one independent span tree: a sentinel root, the innermost
// open span new spans nest under, and the mutex guarding both. The
// process-global tracer is a Collector; request-serving paths create one
// Collector per request so concurrent requests record disjoint trees
// instead of interleaving submission-order nesting on the global one.
//
// A Collector reaches call sites two ways:
//
//   - explicitly — its Begin/Add/Append methods mirror the package-level
//     API;
//   - by goroutine binding — Attach routes the package-level functions
//     called from the current goroutine (the solver phase spans deep in
//     decomp/matching/coloring/mis) to this collector until the returned
//     detach runs. Solvers execute on the calling goroutine and their
//     internal worker goroutines never open spans, so one binding covers
//     a whole Solve.
//
// Collection remains globally gated by Enable: a Collector records
// nothing while tracing is off, and the disabled path is the same single
// atomic load with zero allocation.
type Collector struct {
	mu   sync.Mutex
	root *Span
	cur  *Span
}

// NewCollector returns an empty, independent collector.
func NewCollector() *Collector {
	c := &Collector{}
	c.root = &Span{name: "trace", c: c}
	c.cur = c.root
	return c
}

// Reset discards every recorded span and counter. Open spans become
// orphans: their End still stamps them, but they are no longer reachable
// from the new tree.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root = &Span{name: "trace", c: c}
	c.cur = c.root
}

// Begin opens a span nested under the collector's innermost open span
// and makes it current. Returns nil (inert) when collection is off or c
// is nil — callers that only mint a collector while tracing is on can
// use the nil collector unconditionally.
func (c *Collector) Begin(name string) *Span {
	if c == nil || !enabled.Load() {
		return nil
	}
	return c.begin(name)
}

// Beginf is Begin with a formatted name; the format runs only when
// collection is on.
func (c *Collector) Beginf(format string, args ...any) *Span {
	if c == nil || !enabled.Load() {
		return nil
	}
	return c.begin(fmt.Sprintf(format, args...))
}

// begin records the span unconditionally; callers have already checked
// enabled (exactly one atomic load on the hot path).
func (c *Collector) begin(name string) *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := &Span{name: name, parent: c.cur, start: time.Now(), c: c}
	c.cur.children = append(c.cur.children, sp)
	c.cur = sp
	return sp
}

// Add accumulates v into the named counter of the collector's innermost
// open span. No-op when collection is off or c is nil.
func (c *Collector) Add(name string, v int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.add(name, v)
}

func (c *Collector) add(name string, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.cur
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[name] += v
}

// Append appends v to the named series of the collector's innermost open
// span. No-op when collection is off or c is nil.
func (c *Collector) Append(name string, v int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.appendSeries(name, v)
}

func (c *Collector) appendSeries(name string, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.cur
	if s.series == nil {
		s.series = map[string][]int64{}
	}
	s.series[name] = append(s.series[name], v)
}

// Snapshot deep-copies the collector's tree as the root Export, exactly
// like the package-level Snapshot does for the global tracer.
func (c *Collector) Snapshot() Export {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := export(c.root)
	e.DurNs = int64(e.ChildSum())
	return e
}

// Goroutine bindings: goroutine id → *Collector. nbound counts bound
// goroutines so the common unbound case (benchall, the harness, one-shot
// runs) pays one atomic load instead of a map lookup per trace call.
var (
	bindings sync.Map
	nbound   atomic.Int64
)

// Attach binds the current goroutine to c: until the returned detach
// function runs, package-level Begin/Beginf/Add/Append called from this
// goroutine record into c instead of the global tracer. Attach nests — a
// second Attach on the same goroutine shadows the first and its detach
// restores it — and detach must run on the goroutine that attached.
// Attach on a nil Collector is a no-op (the detach still works), so
// callers can thread an optional collector without branching.
func (c *Collector) Attach() (detach func()) {
	if c == nil {
		return func() {}
	}
	id := goid()
	prev, had := bindings.Load(id)
	bindings.Store(id, c)
	if !had {
		nbound.Add(1)
	}
	return func() {
		if had {
			bindings.Store(id, prev)
		} else {
			bindings.Delete(id)
			nbound.Add(-1)
		}
	}
}

// current resolves the collector the package-level functions should
// record into: the current goroutine's binding if one exists, else the
// global tracer. Callers have already checked enabled.
func current() *Collector {
	if nbound.Load() > 0 {
		if v, ok := bindings.Load(goid()); ok {
			return v.(*Collector)
		}
	}
	return global
}

// goid returns the current goroutine's id, parsed from the
// "goroutine N [state]:" header runtime.Stack prints. The buffer lives
// on the stack, so this allocates nothing; the ~µs cost is paid only on
// enabled trace calls from bound processes — per phase and per round,
// never per edge.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, ch := range buf[len("goroutine "):n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}
