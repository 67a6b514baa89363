package core

// improveLB implements Algorithm 6 for one partition: given the partition's
// vertex set as the solver's current alive mask, it (1) computes the
// h-degree of every partition vertex inside the induced subgraph —
// truncated just above kmax, the largest level this partition can settle,
// since any count that reaches the cap already places the vertex beyond
// every decision the partition makes — (2) derives the LB3 bound of
// Property 3, and (3) "cleans" the partition by cascading removal of
// vertices whose (optimistically decremented) h-degree falls below kmin,
// since such vertices cannot belong to any core of this partition.
//
// Carriers (see carrierKey: vertices whose best known lower bound already
// exceeds kmax) stay alive but are never counted, decremented or queued.
// The (c,h)-core of a carrier with core index c > kmax lies inside
// V[kmin], every member's upper bound being at least c, and the cleaning
// never evicts a core member, so the carrier's h-degree in the cleaned
// partition stays ≥ c > kmin: it can never be evicted, and seedQueue keys
// it by its lower bound without reading its count. Step (1) therefore
// counts only the other vertices, step (2) takes its minimum over them
// and kmax+1 (a carrier's h-degree is at least kmax+1), and step (3)
// neither decrements nor queues a carrier. On the serial path most of a
// lower partition is carriers settled by higher intervals.
//
// Truncation bookkeeping: vertices whose count hit the cap are marked in
// s.capped — their deg entry is a lower bound on the true h-degree, which
// the cleaning cascade must not treat as an upper bound. Eviction only
// ever acts on exact counts, so the cascade runs in waves. An exact entry
// that a decrement drags below kmin is evicted at once. A capped entry
// that dips below kmin becomes a suspect instead: it is parked on
// s.suspects until the eviction stack runs dry, and then each suspect is
// re-counted once with the threshold kernel (HDegreeAtLeast semantics,
// capped at kmin+headroom(kmin)). Suspects that fail join the stack, and
// the waves repeat until both lists are empty. Deferring the re-count is sound
// because every eviction is justified on its own: the alive set always
// contains every core the partition settles, so a vertex whose h-degree
// inside it is below kmin lies outside all of them, and h-degrees only
// fall as the alive set shrinks — a suspect that still reaches kmin after
// the wave's evictions would have reached it at any earlier point. The
// order of evictions is therefore free, as in Batagelj & Zaveršnik's peel
// of a monotone property (Generalized Cores); it may change which
// vertices the cleaning removes, never the cores, since coreDecomp
// settles every survivor on exact counts. Batching spares the re-counts a
// suspect used to pay at every dip between two evictions. The LB3 minimum
// stays sound because a truncated minimum can only under-estimate the
// true minimum, and LB3 is a lower bound.
//
// On return the alive mask reflects the cleaned partition; s.deg holds the
// (possibly capped, flagged) h-degrees of step (1) for every counted
// vertex; s.lb3 has been raised in place. The s.dirty set marks surviving
// vertices whose degree was touched by the cleaning cascade: their s.deg
// value is no longer trustworthy. For every clean counted survivor s.deg
// is exact-or-capped even after removals — a removed vertex w can only
// affect v's h-neighborhood if some vertex within distance h of v routes
// through w, which forces w itself within distance h of v, i.e. v would
// have been decremented.
//
//khcore:peel
//khcore:vset-caller-epoch capped alive
func (s *partitionSolver) improveLB(part []int32, kmin, kmax int) {
	s.dirty.Clear()
	if len(part) == 0 {
		return
	}
	// Step 1: h-degrees inside G[V[kmin]] of every vertex but the carriers
	// (count-only sweep — parallel over the pool for the sequential
	// solver, single-traversal inside a concurrent interval job —
	// truncated above the partition's top level). The counted list lives
	// in the eviction stack's scratch until step 3 filters it in place.
	counted := s.cascade[:0]
	for _, v := range part {
		if _, carrier := s.carrierKey(v, kmax); !carrier {
			counted = append(counted, v)
		}
	}
	capd := kmax + 1 + s.headroom(kmax)
	s.stats.HDegreeComputations += s.hdegCappedBatch(counted, capd)
	for _, v := range counted {
		if int(s.deg[v]) >= capd {
			s.capped.Add(int(v))
		} else {
			s.capped.Remove(int(v))
		}
	}

	// Step 2: Property 3 — every partition member's core index is at
	// least the minimum h-degree within the induced subgraph. A capped
	// entry under-estimates its vertex's true h-degree, and a carrier's
	// h-degree is at least kmax+1, so the truncated minimum over the
	// counted vertices and kmax+1 is still a valid lower bound.
	minDeg := int32(kmax + 1)
	for _, v := range counted {
		if s.deg[v] < minDeg {
			minDeg = s.deg[v]
		}
	}
	lb3 := s.lb3
	for _, v := range part {
		if minDeg > lb3[v] {
			lb3[v] = minDeg
		}
	}

	// Step 3: cascade-clean vertices that cannot reach h-degree kmin.
	// Exact decrement-only updates give an upper bound on the true
	// h-degree, so dropping below kmin is a sound eviction test; capped
	// entries wait as suspects for the next re-verification wave.
	// Carriers are never evicted, so they take no decrement. inQueue
	// marks both the eviction stack and the suspect list, so no vertex
	// sits on both, or twice on one.
	t := s.t
	s.inQueue.Clear()
	cascade := counted[:0]
	suspects := s.suspects[:0]
	for _, v := range counted {
		if s.deg[v] < int32(kmin) {
			cascade = append(cascade, v)
			s.inQueue.Add(int(v))
		}
	}
	recap := kmin + s.headroom(kmin)
	ops := 0
waves:
	for {
		for len(cascade) > 0 {
			if ops++; ops&cancelCheckMask == 0 && s.cancel.stop() {
				break waves // canceled: the half-cleaned partition is never peeled
			}
			v := cascade[len(cascade)-1]
			cascade = cascade[:len(cascade)-1]
			if !s.alive.Contains(int(v)) {
				continue
			}
			verts, _ := t.Ball(int(v), s.h, s.alive)
			s.alive.Remove(int(v))
			for _, u := range verts {
				if _, carrier := s.carrierKey(u, kmax); carrier {
					continue
				}
				s.deg[u]--
				s.stats.Decrements++
				s.dirty.Add(int(u))
				if s.deg[u] >= int32(kmin) || s.inQueue.Contains(int(u)) {
					continue
				}
				s.inQueue.Add(int(u))
				if s.capped.Contains(int(u)) {
					suspects = append(suspects, u)
				} else {
					cascade = append(cascade, u)
				}
			}
		}
		if len(suspects) == 0 {
			break
		}
		// Re-verification wave: the stack is empty, so every suspect is
		// counted against the alive set all exact evictions have left.
		for _, u := range suspects {
			if ops++; ops&cancelCheckMask == 0 && s.cancel.stop() {
				break waves
			}
			d := t.HDegreeCapped(int(u), s.h, s.alive, recap)
			s.stats.HDegreeComputations++
			s.recounts++
			s.deg[u] = int32(d)
			if d < recap {
				s.capped.Remove(int(u)) // the count is exact now
			}
			if d >= kmin {
				s.inQueue.Remove(int(u)) // survives; a later dip may suspect it again
				continue
			}
			cascade = append(cascade, u)
		}
		suspects = suspects[:0]
	}
	s.cascade, s.suspects = cascade[:0], suspects[:0]
}
