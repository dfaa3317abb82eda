package serve

import (
	"errors"
	"sync"
	"sync/atomic"
)

// flightGroup is a minimal singleflight: concurrent do calls with the same
// key share the first call's result. Unlike a cache, nothing is retained
// after the last waiter returns — the result lives on in the lruCache,
// which the leader populates.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	// dups counts followers that joined an in-flight leader, across all
	// keys — the live half of symbreak_serve_coalesced_total, and the
	// synchronization point the coalescing test polls.
	dups atomic.Int64
}

type flightCall struct {
	done chan struct{}
	val  *solveOutcome
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// errLeaderPanicked is the result followers share when the leader's fn
// panics instead of returning.
var errLeaderPanicked = errors.New("serve: coalesced solve panicked")

// do runs fn once per key among concurrent callers. The leader runs fn;
// followers block until it finishes and share its result. shared reports
// whether this caller was a follower. If fn panics, the panic continues
// in the leader, its followers get errLeaderPanicked, and the key is
// released so later callers run fn afresh.
func (g *flightGroup) do(key string, fn func() (*solveOutcome, error)) (val *solveOutcome, err error, shared bool) {
	g.mu.Lock()
	if c, inflight := g.calls[key]; inflight {
		g.mu.Unlock()
		g.dups.Add(1)
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()

	c.val, c.err = fn()
	return c.val, c.err, false
}
