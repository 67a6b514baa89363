package vset

import "testing"

func TestBasicMembership(t *testing.T) {
	s := New(130) // spans three words with a ragged tail
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("fresh set: Len=%d Count=%d", s.Len(), s.Count())
	}
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("Contains(%d) = false after Add", v)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 7 {
		t.Fatalf("Remove(64): Contains=%v Count=%d", s.Contains(64), s.Count())
	}
	if s.Contains(-1) || s.Contains(130) {
		t.Fatal("out-of-range ids must be non-members")
	}
}

func TestClearIsEpochCheap(t *testing.T) {
	s := New(200)
	s.Fill()
	if s.Count() != 200 {
		t.Fatalf("Fill: Count = %d", s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatalf("Clear: Count = %d", s.Count())
	}
	// Members added before the clear must not resurface.
	s.Add(7)
	if !s.Contains(7) || s.Contains(8) || s.Count() != 1 {
		t.Fatalf("post-clear state wrong: Contains(7)=%v Contains(8)=%v Count=%d",
			s.Contains(7), s.Contains(8), s.Count())
	}
}

func TestEpochWraparound(t *testing.T) {
	s := New(70)
	s.Add(3)
	s.Add(69)
	s.epoch = ^uint32(0) // force the next Clear to wrap
	s.stamp[0] = s.epoch // keep word 0 valid at the forced epoch
	s.stamp[1] = s.epoch
	s.Clear()
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	if s.Count() != 0 || s.Contains(3) || s.Contains(69) {
		t.Fatal("members leaked across epoch wrap")
	}
	s.Add(5)
	if !s.Contains(5) || s.Count() != 1 {
		t.Fatal("set unusable after epoch wrap")
	}
}

func TestFillRaggedTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("Fill(n=%d): Count = %d", n, s.Count())
		}
		seen := 0
		s.ForEach(func(v int) {
			if v < 0 || v >= n {
				t.Fatalf("Fill(n=%d): ForEach yielded out-of-range %d", n, v)
			}
			seen++
		})
		if seen != n {
			t.Fatalf("Fill(n=%d): ForEach visited %d", n, seen)
		}
	}
}

func TestCopyCloneAndMembers(t *testing.T) {
	s := New(100)
	want := []int32{2, 3, 5, 64, 99}
	for _, v := range want {
		s.Add(int(v))
	}
	c := s.Clone()
	s.Clear()
	got := c.AppendMembers(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendMembers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendMembers = %v, want %v", got, want)
		}
	}
	d := New(10)
	d.Add(1)
	d.CopyFrom(c)
	if d.Len() != 100 || d.Count() != len(want) || d.Contains(1) {
		t.Fatalf("CopyFrom across sizes: Len=%d Count=%d", d.Len(), d.Count())
	}
}

func TestResizeReusesAndClears(t *testing.T) {
	s := New(256)
	s.Fill()
	s.Resize(64) // shrink within capacity
	if s.Len() != 64 || s.Count() != 0 {
		t.Fatalf("Resize(64): Len=%d Count=%d", s.Len(), s.Count())
	}
	s.Add(63)
	s.Resize(300) // grow past capacity
	if s.Len() != 300 || s.Count() != 0 {
		t.Fatalf("Resize(300): Len=%d Count=%d", s.Len(), s.Count())
	}
}

func TestEpochWrapSweepsFullCapacity(t *testing.T) {
	// A shrunken set must not leak pre-wrap members into the capacity tail
	// when it later regrows within the same backing arrays.
	s := New(128)
	s.Fill() // word 1 stamped at epoch 2, all-ones
	s.Resize(64)
	s.epoch = ^uint32(0)
	s.stamp[0] = s.epoch
	s.Clear()     // wraps: must sweep the full capacity, not just word 0
	s.Resize(128) // regrow within capacity; epoch lands back at 2
	if s.Count() != 0 || s.Contains(100) {
		t.Fatalf("phantom members after wrap+regrow: Count=%d Contains(100)=%v",
			s.Count(), s.Contains(100))
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add past the universe must panic")
		}
	}()
	New(70).Add(100) // word exists (tail), id does not
}

func TestAddRemoveIdempotent(t *testing.T) {
	s := New(10)
	s.Add(4)
	s.Add(4)
	if s.Count() != 1 {
		t.Fatalf("double Add: Count = %d", s.Count())
	}
	s.Remove(4)
	s.Remove(4)
	s.Remove(9) // never added
	if s.Count() != 0 {
		t.Fatalf("double Remove: Count = %d", s.Count())
	}
}

// TestWordMatchesContains checks that Word(w) has bit i set exactly when
// Contains(64w+i) holds: after adds, across a Clear (stale words read
// empty), in the last partial word, and past the universe.
func TestWordMatchesContains(t *testing.T) {
	s := New(150)
	check := func(label string) {
		t.Helper()
		for w := 0; w < 4; w++ {
			word := s.Word(w)
			for i := 0; i < 64; i++ {
				if got, want := word>>i&1 == 1, s.Contains(64*w+i); got != want {
					t.Fatalf("%s: Word(%d) bit %d = %v, Contains(%d) = %v", label, w, i, got, 64*w+i, want)
				}
			}
		}
	}
	for _, v := range []int{0, 63, 64, 65, 127, 128, 149} {
		s.Add(v)
	}
	check("after adds")
	s.Clear()
	s.Add(70)
	check("after Clear")
	s.Fill()
	s.Remove(149)
	check("after Fill")
}
