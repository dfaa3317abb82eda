package par

import (
	"testing"
	"testing/quick"
)

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set on fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestBitsetTestAndSetClaimsOnce(t *testing.T) {
	n := 1 << 16
	b := NewBitset(n)
	wins := make([]int32, n)
	// Many goroutines race to claim each bit; exactly one must win.
	For(n*4, func(j int) {
		i := j % n
		if b.TestAndSet(i) {
			wins[i]++
		}
	})
	for i, w := range wins {
		if w != 1 {
			t.Fatalf("bit %d claimed %d times", i, w)
		}
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func TestBitsetConcurrentSetDisjoint(t *testing.T) {
	// Bits in the same word set concurrently must all land.
	n := 64 * 64
	b := NewBitset(n)
	For(n, func(i int) { b.Set(i) })
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func TestPopcountMatchesStdlib(t *testing.T) {
	if err := quick.Check(func(x uint64) bool {
		want := 0
		for v := x; v != 0; v &= v - 1 {
			want++
		}
		return popcount(x) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}
