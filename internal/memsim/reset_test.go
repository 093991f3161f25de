package memsim

import "testing"

// exercise drives a deterministic mixed access pattern that touches
// every structure Reset must rewind: two buffers (the second large
// enough to spill flat MCDRAM), scalar loads/stores with same-line
// coalescing, streaming line sweeps, and enough reuse to cause
// evictions and writebacks at every level.
func exercise(s *Sim) Traffic {
	a := s.Alloc("a", 24<<10)
	b := s.Alloc("b", 48<<10)
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < a.Size(); off += 8 {
			a.Load(off, 8)
			if off%64 == 0 {
				a.Store(off, 8)
			}
		}
		b.LoadLines(0, b.Size())
		b.StoreLines(0, b.Size()/2)
		// Strided reuse to churn the set-associative levels.
		for off := int64(0); off+8 <= b.Size(); off += 4096 {
			b.Load(off, 8)
		}
	}
	return s.Traffic()
}

// TestResetReproducesFreshSim proves a reset simulator's traffic is
// bit-identical to a brand-new one's in every memory mode — the
// property the sweep engine's per-worker simulator pool relies on.
func TestResetReproducesFreshSim(t *testing.T) {
	for _, mode := range []Mode{ModeDDR, ModeEDRAM, ModeEDRAMMemSide, ModeCache, ModeFlat, ModeHybrid} {
		cfg := testConfig(mode)
		pooled := testSim(t, cfg)
		first := exercise(pooled)

		// A second run on the same sim without Reset must differ in
		// general (warm caches, allocator advanced); after Reset it
		// must match a fresh sim exactly.
		pooled.Reset()
		if tr := pooled.Traffic(); tr != (Traffic{}) {
			t.Fatalf("%s: Reset left traffic %+v", mode, tr)
		}
		again := exercise(pooled)
		fresh := exercise(testSim(t, cfg))
		if again != fresh {
			t.Errorf("%s: reset sim diverged from fresh sim:\nreset: %+v\nfresh: %+v", mode, again, fresh)
		}
		if first != fresh {
			t.Errorf("%s: simulator is nondeterministic:\n%+v\n%+v", mode, first, fresh)
		}
	}
}

// TestResetRewindsAllocator checks flat-mode placement starts over
// after Reset (first allocation back in MCDRAM, no stale split flag).
func TestResetRewindsAllocator(t *testing.T) {
	s := testSim(t, testConfig(ModeFlat)) // 64KB flat MCDRAM
	s.Alloc("big", 60<<10)
	s.Alloc("spill", 16<<10) // forces DDR spill + split flag
	if !s.Traffic().SplitFlat {
		t.Fatal("expected split allocation before reset")
	}
	s.Reset()
	a := s.Alloc("a", 32<<10)
	if !a.InMCDRAM() {
		t.Fatal("post-reset allocation should land in MCDRAM again")
	}
	if s.Traffic().SplitFlat {
		t.Fatal("split flag survived reset")
	}
	if s.Footprint() != 32<<10 {
		t.Fatalf("footprint after reset = %d", s.Footprint())
	}
}
