package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func mkRec(id string, wallNs int64) *RequestRecord {
	return &RequestRecord{ID: id, WallNs: wallNs, Status: 200}
}

// TestFlightRecorderRing checks the ring is bounded at its capacity,
// lists newest-first, and pins the slowest records past eviction.
func TestFlightRecorderRing(t *testing.T) {
	fr := newFlightRecorder(4)
	// Walls 10, 20, ..., 120: the slowest are the latest, except one
	// early outlier that must survive the ring churn.
	fr.add(mkRec("outlier", 10_000))
	for i := 1; i <= 11; i++ {
		fr.add(mkRec(fmt.Sprintf("r%02d", i), int64(i)*10))
	}

	recent, slowest := fr.list()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, want := range []string{"r11", "r10", "r09", "r08"} {
		if recent[i].ID != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].ID, want)
		}
	}
	if len(slowest) != 8 {
		t.Fatalf("slowest holds %d, want %d", len(slowest), 8)
	}
	if slowest[0].ID != "outlier" {
		t.Errorf("slowest[0] = %s, want the pinned outlier", slowest[0].ID)
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i].WallNs > slowest[i-1].WallNs {
			t.Fatalf("slowest not ordered: %d after %d", slowest[i].WallNs, slowest[i-1].WallNs)
		}
	}

	// The outlier fell out of the ring long ago but stays addressable;
	// records in neither set are forgotten.
	if fr.get("outlier") == nil {
		t.Error("pinned outlier not addressable by id")
	}
	if fr.get("r01") != nil {
		// r01 (wall 10) was evicted from the ring and is the slowest
		// set's natural cutoff victim once 8 slower records exist.
		t.Error("evicted record r01 still addressable")
	}
	if fr.get("r11") == nil {
		t.Error("newest record not addressable by id")
	}
}

// TestFlightRecorderDeterministic replays the same completion order
// twice and requires identical contents — sequence numbers, ring order,
// slow-set order.
func TestFlightRecorderDeterministic(t *testing.T) {
	build := func() *flightRecorder {
		fr := newFlightRecorder(3)
		walls := []int64{500, 100, 900, 900, 200, 700, 50, 300}
		for i, w := range walls {
			fr.add(mkRec(fmt.Sprintf("id%d", i), w))
		}
		return fr
	}
	a, b := build(), build()
	ra, sa := a.list()
	rb, sb := b.list()
	for i := range ra {
		if ra[i].ID != rb[i].ID || ra[i].Seq != rb[i].Seq {
			t.Fatalf("ring diverged at %d: %s/%d vs %s/%d", i, ra[i].ID, ra[i].Seq, rb[i].ID, rb[i].Seq)
		}
	}
	for i := range sa {
		if sa[i].ID != sb[i].ID {
			t.Fatalf("slow set diverged at %d: %s vs %s", i, sa[i].ID, sb[i].ID)
		}
	}
	// Equal walls rank by sequence: the earlier 900 outranks the later.
	if sa[0].ID != "id2" || sa[1].ID != "id3" {
		t.Fatalf("tie-break wrong: %s, %s", sa[0].ID, sa[1].ID)
	}
}

// TestFlightRecorderConcurrent hammers add from many goroutines and
// checks the recorder's invariants hold under interleaving: bounded
// sizes, unique dense sequence numbers, the ring holding exactly the
// highest sequences, the slow set correctly ordered.
func TestFlightRecorderConcurrent(t *testing.T) {
	const ringCap, workers, per = 16, 8, 100
	fr := newFlightRecorder(ringCap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fr.add(mkRec(fmt.Sprintf("w%d-%d", w, i), int64(w*per+i)))
			}
		}(w)
	}
	wg.Wait()

	recent, slowest := fr.list()
	if len(recent) != ringCap {
		t.Fatalf("ring holds %d, want %d", len(recent), ringCap)
	}
	if len(slowest) != slowestKept {
		t.Fatalf("slow set holds %d, want %d", len(slowest), slowestKept)
	}
	if got := fr.len(); got > ringCap+slowestKept {
		t.Fatalf("id index holds %d records, want <= %d", got, ringCap+slowestKept)
	}

	// Sequence numbers are dense 1..N; the ring is the cap highest, in
	// descending order.
	const total = workers * per
	for i, r := range recent {
		if want := uint64(total - i); r.Seq != want {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
	for i := 1; i < len(slowest); i++ {
		prev, cur := slowest[i-1], slowest[i]
		if cur.WallNs > prev.WallNs || (cur.WallNs == prev.WallNs && cur.Seq < prev.Seq) {
			t.Fatalf("slow set misordered at %d", i)
		}
	}
	// Every indexed record is reachable via exactly the two sets.
	for _, r := range append(append([]*RequestRecord{}, recent...), slowest...) {
		if fr.get(r.ID) == nil {
			t.Fatalf("listed record %s not addressable", r.ID)
		}
	}
}

// TestFlightRecorderReadersDuringAdd serves the list and by-id views
// while adds keep pushing records out of the slowest set. Published
// records must never change, so under -race a reader copying or
// marshaling one cannot race with add; and every view marks exactly the
// records in the slowest set as Slow.
func TestFlightRecorderReadersDuringAdd(t *testing.T) {
	s := &Service{rec: newFlightRecorder(4)}
	const adds = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Rising walls: every add enters the slowest set and, past
		// slowestKept, evicts its last member.
		for i := 0; i < adds; i++ {
			s.rec.add(mkRec(fmt.Sprintf("r%04d", i), int64(i)))
		}
	}()
	for i, running := 0, true; running; i++ {
		select {
		case <-done:
			running = false
		default:
		}
		s.handleRequests(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
		id := fmt.Sprintf("r%04d", i%adds)
		s.handleRequestByID(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/debug/requests/"+id, nil))
	}

	// A fast record enters the ring but not the slowest set.
	s.rec.add(mkRec("fast", -1))
	recent, slowest := s.rec.list()
	for _, r := range slowest {
		if !r.Slow {
			t.Errorf("slowest-set record %s not marked Slow", r.ID)
		}
	}
	if recent[0].ID != "fast" || recent[0].Slow {
		t.Errorf("newest ring record %s: Slow=%t, want fast/false", recent[0].ID, recent[0].Slow)
	}
	if r := s.rec.get("fast"); r == nil || r.Slow {
		t.Errorf("get(fast) = %+v, want a record not marked Slow", r)
	}
	if r := s.rec.get(fmt.Sprintf("r%04d", adds-1)); r == nil || !r.Slow {
		t.Errorf("slowest record not marked Slow by get: %+v", r)
	}
}
