package par

import "sync/atomic"

// Bitset is a fixed-size bitset safe for concurrent Set/TestAndSet/Test
// through atomic word operations. The zero value is unusable; create with
// NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a cleared bitset holding n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. It is safe for concurrent use.
func (b *Bitset) Set(i int) {
	w, mask := i>>6, uint64(1)<<uint(i&63)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask != 0 || atomic.CompareAndSwapUint64(&b.words[w], old, old|mask) {
			return
		}
	}
}

// TestAndSet sets bit i and reports whether this call changed it from 0 to 1.
// It is the atomic claim operation used by BFS frontiers.
func (b *Bitset) TestAndSet(i int) bool {
	w, mask := i>>6, uint64(1)<<uint(i&63)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&b.words[w], old, old|mask) {
			return true
		}
	}
}

// Test reports bit i. It is safe for concurrent use with Set, with the
// usual racy-read semantics of a snapshot.
func (b *Bitset) Test(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<uint(i&63)) != 0
}

// Reset clears every bit (in parallel). Not safe concurrently with Set.
func (b *Bitset) Reset() {
	Fill(b.words, 0)
}

// Count reports the number of set bits (in parallel).
func (b *Bitset) Count() int {
	return int(Sum(len(b.words), func(i int) int64 {
		return int64(popcount(b.words[i]))
	}))
}

func popcount(x uint64) int {
	// Hacker's Delight bit twiddling; avoids importing math/bits in hot path
	// call sites that inline this.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}
