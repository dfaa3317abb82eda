package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// request is one scheduled POST.
type request struct {
	due  time.Duration // offset from the start of the schedule
	body []byte
	key  solveKey // what body asks for
	hot  int      // index of the hot key, or -1 for a cold request
}

// reply is what the load generator observed for one request.
type reply struct {
	status int
	body   []byte
	id     string // X-Symbreak-Request-Id
	cache  string // X-Symbreak-Cache
	err    error  // transport error or timeout
	// mismatch is set when the 200 body fails the output check.
	mismatch string

	due, sent, done time.Time
	late            time.Duration // how far behind schedule the generator handed it on
}

// latency runs from the due time, so it includes any wait for a free
// connection behind earlier requests.
func (r *reply) latency() time.Duration { return r.done.Sub(r.due) }

// failure says why the request failed — a transport error or timeout,
// any status but 200 (429 and 503 included), or a wrong answer — or is
// empty for a success.
func (r *reply) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return r.mismatch
}

func (r *reply) failed() bool { return r.failure() != "" }

// sloMiss reports a failed request or one slower than slo from its due
// time.
func (r *reply) sloMiss(slo time.Duration) bool { return r.failed() || r.latency() > slo }

func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends each request at its due time, whatever happened to the
// earlier ones, over conns connections, and returns the schedule's start
// and one reply per request. A request whose connections are all busy
// waits for one; that wait counts in its latency. onReply, when non-nil,
// sees each reply on its connection's goroutine once it is timed, and may
// check it and drop its body.
func openLoop(client *http.Client, url string, reqs []request, conns int, onReply func(i int, r *reply)) (time.Time, []reply) {
	replies := make([]reply, len(reqs))
	// One slot per request: handing a request on never blocks the
	// generator, however far the connections fall behind.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(client, url, reqs[i].body, &replies[i])
				if onReply != nil {
					onReply(i, &replies[i])
				}
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		waitUntil(due)
		replies[i].due = due
		replies[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return start, replies
}

// spinAhead is how long before a request's due time the generator stops
// sleeping and polls the clock instead. A sleeping generator wakes when
// the host gets round to it: on a shared VM with idle vCPUs that adds a
// delay, varying with the host's load, to every request's latency.
const spinAhead = time.Millisecond

// waitUntil returns at t: it sleeps until spinAhead before t, then
// polls the clock.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

func send(client *http.Client, url string, body []byte, r *reply) {
	r.sent = time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err == nil {
		r.status = resp.StatusCode
		r.id = resp.Header.Get("X-Symbreak-Request-Id")
		r.cache = resp.Header.Get("X-Symbreak-Cache")
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.err = err
	r.done = time.Now()
}

// loadSummary condenses one open-loop window.
type loadSummary struct {
	ok, failed, sloMiss int
	lat                 []float64 // ms from due time; failed requests count as at least the timeout
	late                tailStat  // generator lateness, ms
	busyFrac            float64   // share of connection time spent on a request
	span                time.Duration
}

func summarize(start time.Time, rs []reply, conns int, slo, timeout time.Duration) loadSummary {
	s := loadSummary{}
	var busy time.Duration
	late := make([]float64, len(rs))
	for i := range rs {
		r := &rs[i]
		lat := r.latency()
		if r.failed() {
			s.failed++
			lat = max(lat, timeout)
		} else {
			s.ok++
		}
		if r.sloMiss(slo) {
			s.sloMiss++
		}
		s.lat = append(s.lat, ms(lat))
		late[i] = ms(r.late)
		busy += r.done.Sub(r.sent)
		s.span = max(s.span, r.done.Sub(start))
	}
	s.late = percentile(late, 0.99)
	s.busyFrac = ratio(busy.Seconds(), float64(conns)*s.span.Seconds())
	return s
}
