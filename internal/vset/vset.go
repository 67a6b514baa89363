// Package vset provides the packed vertex-set representation shared by
// every (k,h)-core algorithm in this repository: a bitset over vertex ids
// 0..n-1 with epoch-cleared semantics. Clearing is O(1) — the set bumps a
// generation counter and every word is lazily re-zeroed on first touch —
// so the peeling algorithms' vertex sets and the "alive" masks of the
// peels and the applications can all reuse one allocation across an
// unbounded number of runs. (The h-BFS visited marks are not a Set: each
// hbfs.Traversal keeps its own plain bitset, all-zero between searches.)
// A Set packs 64 vertices per word (8× denser than the []bool masks it
// replaces), which both shrinks the cache footprint of the BFS hot loop
// and makes whole-set operations (Fill, CopyFrom, Count) word-parallel;
// Word hands the h-BFS kernels 64 alive bits at once.
package vset

import "math/bits"

// Set is a packed bitset over vertex ids [0, Len()). The zero value is an
// empty set of zero vertices; use New or Resize to size it. A Set is not
// safe for concurrent mutation, but concurrent readers are safe between
// mutations (the peeling pools read a fixed alive mask from many
// goroutines).
type Set struct {
	words []uint64
	stamp []uint32 // words[w] is meaningful only while stamp[w] == epoch
	epoch uint32
	n     int
}

// New returns an empty set over vertex ids [0, n).
func New(n int) *Set {
	s := &Set{}
	s.Resize(n)
	return s
}

// Len returns the size of the vertex universe (not the number of members).
func (s *Set) Len() int { return s.n }

// Resize re-binds the set to a universe of n vertices and clears it. The
// backing arrays are reused whenever their capacity suffices, so a
// long-lived Set can follow a graph that grows and shrinks without
// re-allocating in the steady state.
//
//khcore:hotpath
func (s *Set) Resize(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w) //khcore:alloc-ok amortized growth; steady-state resizes reuse capacity
		s.stamp = make([]uint32, w) //khcore:alloc-ok amortized growth; steady-state resizes reuse capacity
		s.epoch = 0
	} else {
		s.words = s.words[:w]
		s.stamp = s.stamp[:w]
	}
	s.n = n
	s.Clear()
}

// Clear empties the set in O(1) by advancing the epoch; words are lazily
// zeroed when next written. The rare epoch wrap-around pays one eager
// sweep to keep stale stamps from aliasing the new epoch.
//
//khcore:hotpath
func (s *Set) Clear() {
	s.epoch++
	if s.epoch == 0 { // wrapped: eagerly reset every word once per 2^32 clears
		// Sweep the full capacity, not just the current length: words
		// beyond a shrunken universe keep their stamps and must not alias
		// a post-wrap epoch if the set later regrows within capacity.
		words := s.words[:cap(s.words)]
		stamp := s.stamp[:cap(s.stamp)]
		for i := range words {
			words[i] = 0
			stamp[i] = 0
		}
		s.epoch = 1
	}
}

// Fill makes the set contain every vertex of the universe.
//
//khcore:hotpath
func (s *Set) Fill() {
	s.Clear()
	for i := range s.words {
		s.words[i] = ^uint64(0)
		s.stamp[i] = s.epoch
	}
	if tail := uint(s.n % 64); tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (uint64(1) << tail) - 1
	}
}

// word returns the current value of word w, honoring the epoch.
//
//khcore:hotpath
func (s *Set) word(w int) uint64 {
	if s.stamp[w] != s.epoch {
		return 0
	}
	return s.words[w]
}

// Word returns the members among ids 64w..64w+63 as a bit mask (bit i
// for id 64w+i), honoring the epoch: a word stale since the last Clear
// reads as empty, and so does a word past the universe, matching Contains.
//
//khcore:hotpath
func (s *Set) Word(w int) uint64 {
	if uint(w) >= uint(len(s.words)) {
		return 0
	}
	return s.word(w)
}

// touch validates v's word for the current epoch and returns its index.
// Out-of-range ids panic: a silent write into the last partial word would
// desynchronize Count/ForEach from Contains.
//
//khcore:hotpath
func (s *Set) touch(v int) int {
	if uint(v) >= uint(s.n) {
		panic("vset: vertex id out of range")
	}
	w := v >> 6
	if s.stamp[w] != s.epoch {
		s.words[w] = 0
		s.stamp[w] = s.epoch
	}
	return w
}

// Contains reports whether v is a member. Out-of-range ids are non-members.
//
//khcore:hotpath
func (s *Set) Contains(v int) bool {
	if uint(v) >= uint(s.n) {
		return false
	}
	w := v >> 6
	return s.stamp[w] == s.epoch && s.words[w]>>(uint(v)&63)&1 != 0
}

// Add inserts v.
//
//khcore:hotpath
func (s *Set) Add(v int) {
	w := s.touch(v)
	s.words[w] |= 1 << (uint(v) & 63)
}

// Remove deletes v.
//
//khcore:hotpath
func (s *Set) Remove(v int) {
	w := s.touch(v)
	s.words[w] &^= 1 << (uint(v) & 63)
}

// Count returns the number of members (popcount over valid words).
//
//khcore:hotpath
func (s *Set) Count() int {
	total := 0
	for w := range s.words {
		total += bits.OnesCount64(s.word(w))
	}
	return total
}

// CopyFrom makes s an exact copy of o (same universe, same members),
// reusing s's backing arrays when possible.
//
//khcore:hotpath
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		s.Resize(o.n)
	} else {
		s.Clear()
	}
	for w := range s.words {
		s.words[w] = o.word(w)
		s.stamp[w] = s.epoch
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	c.CopyFrom(s)
	return c
}

// ForEach invokes fn for every member in ascending id order.
//
//khcore:hotpath
func (s *Set) ForEach(fn func(v int)) {
	for w := range s.words {
		word := s.word(w)
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// AppendMembers appends the members in ascending order to dst (reset to
// length 0 first) and returns it — the zero-alloc way to enumerate a set
// into reusable scratch.
//
//khcore:hotpath
func (s *Set) AppendMembers(dst []int32) []int32 {
	dst = dst[:0]
	for w := range s.words {
		word := s.word(w)
		base := int32(w << 6)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
