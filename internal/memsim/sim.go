package memsim

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Address-space layout. Flat-mode MCDRAM occupies a low region so the
// allocator can place data there preferentially; DDR allocations start
// at ddrBase. The regions never collide at simulated scales.
const (
	mcdramBase = uint64(0)
	ddrBase    = uint64(1) << 44
)

// Traffic accumulates the per-source byte counts of one simulated run.
type Traffic struct {
	// Bytes[s] counts demand bytes served to the cores by source s.
	Bytes [NumSources]uint64
	// WBBytes[s] counts writeback bytes absorbed by source s (only
	// memory-side sources accumulate writebacks; inter-cache victim
	// movement is free on-die traffic).
	WBBytes [NumSources]uint64
	// Lines[s] counts demand line fills served by source s (latency
	// bound input).
	Lines [NumSources]uint64
	// MCTagLines counts accesses that consulted the MCDRAM cache's
	// in-MCDRAM tags (cache/hybrid modes); each costs a slice of
	// MCDRAM bandwidth beyond the data transfer. Flat-resident
	// accesses never pay it — the root of hybrid > cache for GEMM.
	MCTagLines uint64
	// Accesses is the total number of load/store byte-accesses issued.
	Accesses uint64
	// FootprintBytes is the total simulated allocation size.
	FootprintBytes int64
	// SplitFlat is true when flat-mode allocations straddled MCDRAM
	// and DDR (triggers the split-allocation penalty).
	SplitFlat bool
}

// TotalMemBytes returns demand+writeback bytes that crossed the
// package boundary or OPM interface (everything below L3).
func (t *Traffic) TotalMemBytes() uint64 {
	return t.Bytes[SrcEDRAM] + t.Bytes[SrcMCDRAM] + t.Bytes[SrcDDR] +
		t.WBBytes[SrcEDRAM] + t.WBBytes[SrcMCDRAM] + t.WBBytes[SrcDDR]
}

// Buffer is a simulated allocation. Offsets are byte offsets.
type Buffer struct {
	sim  *Sim
	base uint64
	size int64
	name string
}

// Size returns the allocation size in bytes.
func (b Buffer) Size() int64 { return b.size }

// InMCDRAM reports whether the buffer's base resides in flat-mode
// MCDRAM.
func (b Buffer) InMCDRAM() bool { return b.base < ddrBase }

// check panics on out-of-allocation accesses: a trace generator bug
// would otherwise silently alias another buffer's lines and corrupt
// the experiment (the simulated analogue of a segfault).
func (b Buffer) check(off, n int64) {
	if off < 0 || n <= 0 || off+n > (b.size+cache.LineSize-1)&^(cache.LineSize-1) {
		panic(fmt.Sprintf("memsim: buffer %q: access [%d, %d) outside %d bytes",
			b.name, off, off+n, b.size))
	}
}

// Load issues a read of n bytes at byte offset off.
func (b Buffer) Load(off int64, n int) {
	b.check(off, int64(n))
	b.sim.touch(b.base+uint64(off), int64(n), false)
}

// Store issues a write of n bytes at byte offset off.
func (b Buffer) Store(off int64, n int) {
	b.check(off, int64(n))
	b.sim.touch(b.base+uint64(off), int64(n), true)
}

// LoadLines issues reads covering [off, off+n) one line at a time —
// a fast path for streaming sweeps.
func (b Buffer) LoadLines(off, n int64) {
	b.check(off, n)
	b.sim.touchLines(b.base+uint64(off), n, false)
}

// StoreLines issues writes covering [off, off+n) one line at a time.
func (b Buffer) StoreLines(off, n int64) {
	b.check(off, n)
	b.sim.touchLines(b.base+uint64(off), n, true)
}

// Sim is one simulated machine instance. It is not safe for concurrent
// use; parallel kernels are modelled by interleaving their access
// streams and by the thread/MLP terms of the timing model.
type Sim struct {
	cfg Config

	l1     *cache.SetAssoc
	l2     *cache.SetAssoc
	l3     *cache.SetAssoc
	edram  *cache.SetAssoc // CPU-side eDRAM victim cache (Broadwell)
	ms     memSide         // cache in front of DDR, if the mode has one
	levels []level         // the instantiated caches, nearest to farthest

	mcFlatCap   int64 // flat-addressable MCDRAM bytes (flat/hybrid)
	mcAllocated int64
	ddrCursor   uint64

	traffic  Traffic
	lastLine uint64 // trivial same-line coalescing for scalar streams
	lastWr   bool
	hasLast  bool
}

// memSide is a cache in front of DDR: KNL's direct-mapped MCDRAM cache
// (cache mode, and hybrid's cached half) or Skylake's set-associative
// memory-side eDRAM. Its hits are served by src; the fills and
// writebacks it absorbs occupy src's bandwidth, and its dirty victims
// are written to DDR.
type memSide struct {
	level        // c is nil when the mode has no memory-side cache
	src   Source // SrcMCDRAM or SrcEDRAM
}

// level is one cache of the hierarchy under its LevelStats name.
type level struct {
	name string
	c    *cache.SetAssoc
}

// NewSim builds a simulator from a validated config.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, ddrCursor: ddrBase}
	if cfg.L1.Size > 0 {
		s.l1 = cache.NewSetAssoc("L1", cfg.L1.Size, cfg.L1.Ways)
	}
	s.l2 = cache.NewSetAssoc("L2", cfg.L2.Size, cfg.L2.Ways)
	if cfg.L3.Size > 0 {
		s.l3 = cache.NewSetAssoc("L3", cfg.L3.Size, cfg.L3.Ways)
	}
	switch cfg.Mode {
	case ModeEDRAM:
		s.edram = cache.NewSetAssoc("eDRAM", cfg.EDRAM.Size, cfg.EDRAM.Ways)
	case ModeEDRAMMemSide:
		s.ms = memSide{level{"edram_ms", cache.NewSetAssoc("eDRAM-MS", cfg.EDRAM.Size, cfg.EDRAM.Ways)}, SrcEDRAM}
	case ModeCache:
		s.ms = memSide{level{"mcdram_cache", cache.NewSetAssoc("MCDRAM$", cfg.MCDRAMBytes, 1)}, SrcMCDRAM}
	case ModeFlat:
		s.mcFlatCap = cfg.MCDRAMBytes
	case ModeHybrid:
		s.ms = memSide{level{"mcdram_cache", cache.NewSetAssoc("MCDRAM$", cfg.MCDRAMBytes/2, 1)}, SrcMCDRAM}
		s.mcFlatCap = cfg.MCDRAMBytes / 2
	}
	for _, lv := range []level{{"l1", s.l1}, {"l2", s.l2}, {"l3", s.l3}, {"edram", s.edram}, s.ms.level} {
		if lv.c != nil {
			s.levels = append(s.levels, lv)
		}
	}
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Traffic returns a snapshot of the accumulated traffic counters.
func (s *Sim) Traffic() Traffic { return s.traffic }

// Reset returns the simulator to its freshly-constructed state: caches
// cold, allocator rewound, traffic counters cleared. A reset simulator
// reproduces a fresh one's traffic exactly, which lets sweep workers
// pool one simulator per configuration instead of paying the cache
// array allocations of NewSim once per sweep cell.
func (s *Sim) Reset() {
	for _, lv := range s.levels {
		lv.c.Reset()
	}
	s.mcAllocated = 0
	s.ddrCursor = ddrBase
	s.traffic = Traffic{}
	s.lastLine, s.lastWr, s.hasLast = 0, false, false
}

// ResetTraffic clears traffic counters but keeps cache contents — used
// to discard warm-up passes so steady-state behaviour is measured, as
// the paper averages multiple executions.
func (s *Sim) ResetTraffic() {
	fp := s.traffic.FootprintBytes
	split := s.traffic.SplitFlat
	s.traffic = Traffic{FootprintBytes: fp, SplitFlat: split}
	s.hasLast = false
}

// LevelStats is the per-level cache statistics of one simulator: one
// entry per instantiated level, nearest to farthest. Names are
// metric-safe lowercase ("l1", "mcdram_cache", ...).
type LevelStats struct {
	Level string
	Stats cache.Stats
}

// LevelStats snapshots the hit/miss/eviction/writeback counters of
// every cache level the current mode instantiates.
func (s *Sim) LevelStats() []LevelStats {
	out := make([]LevelStats, len(s.levels))
	for i, lv := range s.levels {
		out[i] = LevelStats{Level: lv.name, Stats: *lv.c.Stats()}
	}
	return out
}

// RecordMetrics adds the simulator's current per-level cache
// statistics and traffic counters into reg (no-op when reg is nil):
//
//	memsim/runs                                 simulations recorded
//	memsim/<level>/{accesses,hits,misses,evictions,writebacks}
//	memsim/traffic/<source>_bytes               demand bytes served
//	memsim/traffic/<source>_wb_bytes            writeback bytes absorbed
//	memsim/traffic/<source>_lines               demand line fills
//	memsim/traffic/{mc_tag_lines,accesses}
//
// The sweep harness calls it once per finished job — RunOn resets the
// simulator first, so each call contributes exactly that job's counts
// and the registry accumulates the whole sweep's totals.
//
//opmlint:allow counternames — level and traffic-source segments come from closed sets (Config.Levels, validated at NewSim, and the Source enum), so the full names are enumerable from the docs above
func (s *Sim) RecordMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("memsim/runs").Inc()
	for _, ls := range s.LevelStats() {
		p := "memsim/" + ls.Level + "/"
		reg.Counter(p + "accesses").AddUint64(ls.Stats.Accesses)
		reg.Counter(p + "hits").AddUint64(ls.Stats.Hits)
		reg.Counter(p + "misses").AddUint64(ls.Stats.Misses)
		reg.Counter(p + "evictions").AddUint64(ls.Stats.Evictions)
		reg.Counter(p + "writebacks").AddUint64(ls.Stats.Writebacks)
	}
	for src := Source(0); src < NumSources; src++ {
		name := strings.ToLower(src.String())
		if b := s.traffic.Bytes[src]; b > 0 {
			reg.Counter("memsim/traffic/" + name + "_bytes").AddUint64(b)
		}
		if wb := s.traffic.WBBytes[src]; wb > 0 {
			reg.Counter("memsim/traffic/" + name + "_wb_bytes").AddUint64(wb)
		}
		if l := s.traffic.Lines[src]; l > 0 {
			reg.Counter("memsim/traffic/" + name + "_lines").AddUint64(l)
		}
	}
	reg.Counter("memsim/traffic/mc_tag_lines").AddUint64(s.traffic.MCTagLines)
	reg.Counter("memsim/traffic/accesses").AddUint64(s.traffic.Accesses)
}

// Alloc reserves a simulated buffer. In flat and hybrid modes the
// allocator prefers MCDRAM (the paper's "numactl -p") and spills to
// DDR once the flat region is exhausted, setting the split flag.
func (s *Sim) Alloc(name string, size int64) Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: Alloc(%s) with size %d", name, size))
	}
	// Round to line size so buffers never share lines.
	rounded := (size + cache.LineSize - 1) &^ (cache.LineSize - 1)
	s.traffic.FootprintBytes += size
	if s.mcFlatCap > 0 && s.mcAllocated+rounded <= s.mcFlatCap {
		base := mcdramBase + uint64(s.mcAllocated)
		s.mcAllocated += rounded
		return Buffer{sim: s, base: base, size: size, name: name}
	}
	// Only pure flat mode suffers the MCDRAM+DDR straddle pathology;
	// in hybrid mode the cached half absorbs the spill gracefully
	// (Section 4.2.1 II vs III).
	if s.cfg.Mode == ModeFlat && s.mcAllocated > 0 {
		s.traffic.SplitFlat = true
	}
	base := s.ddrCursor
	s.ddrCursor += uint64(rounded)
	return Buffer{sim: s, base: base, size: size, name: name}
}

// Footprint returns total allocated bytes (simulated scale).
func (s *Sim) Footprint() int64 { return s.traffic.FootprintBytes }

// touch issues an access of n bytes at byte address addr, visiting
// each covered line once.
func (s *Sim) touch(addr uint64, n int64, write bool) {
	s.traffic.Accesses++
	first := cache.LineAddr(addr)
	last := cache.LineAddr(addr + uint64(n) - 1)
	for line := first; line <= last; line++ {
		// Same-line coalescing: consecutive scalar accesses to one
		// line collapse into the first (an L1 would absorb them; this
		// keeps the filter cache small and the simulation fast).
		if s.hasLast && line == s.lastLine && (!write || s.lastWr) {
			s.traffic.Bytes[SrcL1] += cache.LineSize
			continue
		}
		s.accessLine(line, write)
		s.lastLine, s.lastWr, s.hasLast = line, write, true
	}
}

// touchLines issues a line-granular streaming access over [addr,
// addr+n).
func (s *Sim) touchLines(addr uint64, n int64, write bool) {
	first := cache.LineAddr(addr)
	last := cache.LineAddr(addr + uint64(n) - 1)
	s.traffic.Accesses += last - first + 1
	for line := first; line <= last; line++ {
		s.accessLine(line, write)
	}
	s.hasLast = false
}

// accessLine walks the hierarchy for one line access.
func (s *Sim) accessLine(line uint64, write bool) {
	if s.l1 != nil {
		hit, ev := s.l1.Access(line, write)
		if hit {
			s.traffic.Bytes[SrcL1] += cache.LineSize
			return
		}
		if ev.Valid && ev.Dirty {
			// Dirty L1 victims merge into L2 (lines were filled
			// through L2, so they are normally still present).
			s.l2.Insert(ev.Addr, true)
		}
		// fall through: fill from L2 and below, line installed above.
	}
	hit, ev := s.l2.Access(line, write)
	if hit {
		s.traffic.Bytes[SrcL2] += cache.LineSize
		return
	}
	if ev.Valid && ev.Dirty {
		s.evictFromL2(ev.Addr)
	}
	if s.l3 != nil {
		hit, ev3 := s.l3.Access(line, false)
		if ev3.Valid {
			s.evictFromL3(ev3)
		}
		if hit {
			s.traffic.Bytes[SrcL3] += cache.LineSize
			s.traffic.Lines[SrcL3]++
			return
		}
		// L3 miss: probe the eDRAM victim cache if present.
		if s.edram != nil {
			if found, dirty := s.edram.Invalidate(line); found {
				s.traffic.Bytes[SrcEDRAM] += cache.LineSize
				s.traffic.Lines[SrcEDRAM]++
				// Promoted line re-enters L3 (already inserted by the
				// Access fill above); preserve dirtiness.
				if dirty {
					s.l3.Insert(line, true)
				}
				return
			}
		}
		s.serveFromMemory(line)
		return
	}
	// KNL path: below L2 sits MCDRAM (mode-dependent) or DDR.
	s.serveFromMemory(line)
}

// evictFromL2 handles a dirty L2 victim: it is absorbed by L3 when
// present, otherwise written back to memory.
func (s *Sim) evictFromL2(line uint64) {
	if s.l3 != nil {
		ev := s.l3.Insert(line, true)
		if ev.Valid {
			s.evictFromL3(ev)
		}
		return
	}
	s.writebackToMemory(line)
}

// evictFromL3 routes an L3 victim into the eDRAM victim cache when
// enabled, else writes back dirty lines to memory.
func (s *Sim) evictFromL3(ev cache.Line) {
	if s.edram != nil {
		// The victim install itself consumes eDRAM (OPIO) bandwidth.
		s.traffic.WBBytes[SrcEDRAM] += cache.LineSize
		ev4 := s.edram.Insert(ev.Addr, ev.Dirty)
		if ev4.Valid && ev4.Dirty {
			s.writebackToMemory(ev4.Addr)
		}
		return
	}
	if ev.Dirty {
		s.writebackToMemory(ev.Addr)
	}
}

// serveFromMemory satisfies a demand fill from the memory side: flat
// MCDRAM for addresses below ddrBase (only flat and hybrid modes
// allocate there), else the memory-side cache if the mode has one,
// else DDR. writebackToMemory routes writebacks the same way.
func (s *Sim) serveFromMemory(line uint64) {
	switch {
	case line<<cache.LineShift < ddrBase:
		s.count(SrcMCDRAM)
	case s.ms.c != nil:
		s.memSideAccess(line)
	default:
		s.count(SrcDDR)
	}
}

// memSideAccess serves a demand fill through the memory-side cache,
// which installs every DRAM fill (unlike the Broadwell victim cache,
// which only captures L3 evictions).
func (s *Sim) memSideAccess(line uint64) {
	if s.ms.src == SrcMCDRAM {
		s.traffic.MCTagLines++ // the MCDRAM cache keeps its tags in MCDRAM
	}
	hit, ev := s.ms.c.Access(line, false)
	if ev.Valid && ev.Dirty {
		s.traffic.WBBytes[SrcDDR] += cache.LineSize
	}
	if hit {
		s.count(s.ms.src)
		return
	}
	// Miss: the fill crosses DDR and the install occupies the OPM's
	// bandwidth; demand bytes attribute to DDR.
	s.count(SrcDDR)
	s.traffic.WBBytes[s.ms.src] += cache.LineSize
}

// writebackToMemory accounts a dirty line leaving the cache hierarchy.
func (s *Sim) writebackToMemory(line uint64) {
	switch {
	case line<<cache.LineShift < ddrBase:
		s.traffic.WBBytes[SrcMCDRAM] += cache.LineSize
	case s.ms.c != nil:
		// The memory-side cache absorbs the writeback.
		if ev := s.ms.c.Insert(line, true); ev.Valid && ev.Dirty {
			s.traffic.WBBytes[SrcDDR] += cache.LineSize
		}
		s.traffic.WBBytes[s.ms.src] += cache.LineSize
	default:
		s.traffic.WBBytes[SrcDDR] += cache.LineSize
	}
}

func (s *Sim) count(src Source) {
	s.traffic.Bytes[src] += cache.LineSize
	s.traffic.Lines[src]++
}
