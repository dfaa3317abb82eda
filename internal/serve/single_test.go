package serve

import (
	"errors"
	"testing"
	"time"
)

// TestFlightGroupLeaderPanic pins that a panicking leader cannot wedge
// its key: the panic reaches the leader, a follower that joined it gets
// an error, and a later caller runs its own fn.
func TestFlightGroupLeaderPanic(t *testing.T) {
	g := newFlightGroup()
	entered, proceed := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.do("k", func() (*solveOutcome, error) {
			close(entered)
			<-proceed
			panic("solver bug")
		})
	}()
	<-entered
	follower := make(chan error, 1)
	go func() {
		_, err, shared := g.do("k", func() (*solveOutcome, error) {
			t.Error("follower ran fn while a leader was in flight")
			return nil, nil
		})
		if !shared {
			t.Error("follower not reported as shared")
		}
		follower <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.dups.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(proceed)

	if r := recvWithin(t, "leader", leader); r != "solver bug" {
		t.Errorf("leader recovered %v, want the fn's panic", r)
	}
	if err := recvWithin(t, "follower", follower); !errors.Is(err, errLeaderPanicked) {
		t.Errorf("follower got %v, want errLeaderPanicked", err)
	}

	later := make(chan error, 1)
	want := &solveOutcome{}
	go func() {
		val, err, shared := g.do("k", func() (*solveOutcome, error) { return want, nil })
		if val != want || shared {
			t.Errorf("later caller got (%v, shared=%v), want its own result", val, shared)
		}
		later <- err
	}()
	if err := recvWithin(t, "later caller", later); err != nil {
		t.Errorf("later caller got %v", err)
	}
}

// recvWithin receives from ch, failing the test if nothing arrives within
// 10 s — a wedged flightGroup blocks forever.
func recvWithin[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked after the leader panicked", what)
		panic("unreachable")
	}
}
