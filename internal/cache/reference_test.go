package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the plain reference model SetAssoc must agree with: per
// set, a list of resident lines from least to most recently used. A
// fill into a set with room evicts nothing (the freed way of an
// Invalidate is reused); a fill into a full set evicts the list head.
type refLRU struct {
	ways  int
	sets  [][]refLine
	stats Stats
}

type refLine struct {
	addr  uint64
	dirty bool
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{ways: ways, sets: make([][]refLine, sets)}
}

func (r *refLRU) find(addr uint64) (s, i int) {
	s = int(addr % uint64(len(r.sets)))
	return s, slices.IndexFunc(r.sets[s], func(l refLine) bool { return l.addr == addr })
}

// use moves the line at (s, i) to the most recently used end.
func (r *refLRU) use(s, i int, dirty bool) {
	l := r.sets[s][i]
	l.dirty = l.dirty || dirty
	r.sets[s] = append(slices.Delete(r.sets[s], i, i+1), l)
}

func (r *refLRU) fill(s int, addr uint64, dirty bool) Line {
	var ev Line
	if len(r.sets[s]) == r.ways {
		old := r.sets[s][0]
		r.sets[s] = r.sets[s][1:]
		ev = Line{Addr: old.addr, Dirty: old.dirty, Valid: true}
		r.stats.Evictions++
		if old.dirty {
			r.stats.Writebacks++
		}
	}
	r.sets[s] = append(r.sets[s], refLine{addr, dirty})
	return ev
}

func (r *refLRU) access(addr uint64, write bool) (bool, Line) {
	r.stats.Accesses++
	s, i := r.find(addr)
	if i >= 0 {
		r.stats.Hits++
		r.use(s, i, write)
		return true, Line{}
	}
	r.stats.Misses++
	return false, r.fill(s, addr, write)
}

func (r *refLRU) insert(addr uint64, dirty bool) Line {
	s, i := r.find(addr)
	if i >= 0 {
		r.use(s, i, dirty)
		return Line{}
	}
	return r.fill(s, addr, dirty)
}

func (r *refLRU) invalidate(addr uint64) (bool, bool) {
	s, i := r.find(addr)
	if i < 0 {
		return false, false
	}
	dirty := r.sets[s][i].dirty
	r.sets[s] = slices.Delete(r.sets[s], i, i+1)
	return true, dirty
}

// TestSetAssocMatchesReferenceLRU drives random Access / Insert /
// Invalidate sequences with write flags through SetAssoc and refLRU at
// every associativity the simulated machines use, comparing each hit,
// each displaced line, presence and the final statistics. Invalidates
// punch holes that later fills must reuse before evicting anything.
func TestSetAssocMatchesReferenceLRU(t *testing.T) {
	const sets = 8
	for _, ways := range []int{1, 2, 8, 12, 16} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := NewSetAssoc("diff", int64(sets*ways)*LineSize, ways)
				ref := newRefLRU(sets, ways)
				span := 3 * sets * ways // enough lines to overflow every set
				for step := 0; step < 20000; step++ {
					addr := uint64(rng.Intn(span))
					write := rng.Intn(3) == 0
					var got, want any
					switch op := rng.Intn(10); {
					case op < 6:
						h, ev := c.Access(addr, write)
						rh, rev := ref.access(addr, write)
						got, want = [2]any{h, ev}, [2]any{rh, rev}
					case op < 8:
						got, want = c.Insert(addr, write), ref.insert(addr, write)
					default:
						f, d := c.Invalidate(addr)
						rf, rd := ref.invalidate(addr)
						got, want = [2]bool{f, d}, [2]bool{rf, rd}
					}
					if got != want {
						t.Fatalf("seed %d step %d line %d: got %v, want %v", seed, step, addr, got, want)
					}
					probe := uint64(rng.Intn(span))
					if _, i := ref.find(probe); c.Probe(probe) != (i >= 0) {
						t.Fatalf("seed %d step %d: Probe(%d) disagrees with reference presence %v", seed, step, probe, i >= 0)
					}
				}
				if *c.Stats() != ref.stats {
					t.Fatalf("seed %d: stats %+v, want %+v", seed, *c.Stats(), ref.stats)
				}
			}
		})
	}
}

// TestSetAssocInvalidateFreesVictimWay pins victim choice after an
// Invalidate: the next fill takes the freed way and evicts nothing, and
// the one after evicts the least recently used survivor.
func TestSetAssocInvalidateFreesVictimWay(t *testing.T) {
	c := NewSetAssoc("t", 4*LineSize, 4) // 1 set, 4 ways
	for _, l := range []uint64{1, 2, 3, 4} {
		c.Access(l, false)
	}
	c.Access(1, false) // LRU order now 2, 3, 4, 1
	if found, _ := c.Invalidate(3); !found {
		t.Fatal("line 3 should be present")
	}
	if _, ev := c.Access(5, false); ev.Valid {
		t.Fatalf("fill after Invalidate evicted %+v, want the freed way", ev)
	}
	if _, ev := c.Access(6, false); !ev.Valid || ev.Addr != 2 {
		t.Fatalf("evicted %+v, want LRU line 2", ev)
	}
	if _, ev := c.Access(7, false); !ev.Valid || ev.Addr != 4 {
		t.Fatalf("evicted %+v, want LRU line 4", ev)
	}
}
