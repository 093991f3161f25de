package cache

import "fmt"

// Way state packed into the low bits of a tag word: tag = line<<2 |
// dirty<<1 | valid. Line addresses must stay below 2^62.
const (
	validBit = 1
	dirtyBit = 2
)

// SetAssoc is a set-associative cache with true-LRU replacement,
// implemented with per-line timestamps (a hit only writes one counter,
// keeping the simulator's hot path free of shuffling). Each lookup
// scans its set once, finding the hit and the LRU victim together.
//
// With one way it is a direct-mapped cache. The MCDRAM cache mode on
// Knights Landing is direct-mapped with the tags stored in MCDRAM
// itself (Section 2.2 of the paper), which is why its conflict misses
// matter for the cache-vs-hybrid comparison the paper reports.
type SetAssoc struct {
	ways    int
	setMask uint64
	tags    []uint64 // sets*ways packed tag words; 0 is an invalid way
	// age holds LRU timestamps, 0 for invalid ways, so the minimum age
	// is the first invalid way or else the least recently used one. A
	// 1-way cache has a single candidate and keeps no ages.
	age   []uint64
	clock uint64
	stats Stats
}

// NewSetAssoc builds a set-associative cache of the given capacity in
// bytes with the given associativity. Capacity must be a multiple of
// ways*LineSize and the resulting set count must be a power of two.
// The name only labels construction errors.
func NewSetAssoc(name string, capacityBytes int64, ways int) *SetAssoc {
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive, got %d", name, ways))
	}
	lines := capacityBytes / LineSize
	if lines <= 0 || lines%int64(ways) != 0 {
		panic(fmt.Sprintf("cache %s: capacity %d not a multiple of ways*linesize", name, capacityBytes))
	}
	sets := int(lines) / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	c := &SetAssoc{ways: ways, setMask: uint64(sets - 1), tags: make([]uint64, lines)}
	if ways > 1 {
		c.age = make([]uint64, lines)
	}
	return c
}

// Stats returns the accumulated statistics.
func (c *SetAssoc) Stats() *Stats { return &c.stats }

// Reset clears contents and statistics.
func (c *SetAssoc) Reset() {
	clear(c.tags)
	clear(c.age)
	c.clock = 0
	c.stats = Stats{}
}

// lookup scans lineAddr's set once. It returns the index of the way
// holding the line (-1 on a miss) and the index of the way a fill
// would replace.
func (c *SetAssoc) lookup(lineAddr uint64) (hit, victim int) {
	base := int(lineAddr&c.setMask) * c.ways
	key := lineAddr<<2 | validBit
	if c.age == nil {
		if c.tags[base]&^dirtyBit == key {
			return base, base
		}
		return -1, base
	}
	set := c.tags[base : base+c.ways]
	ages := c.age[base:][:len(set)]
	victim, oldest := 0, ^uint64(0)
	for i, t := range set {
		if t&^dirtyBit == key {
			return base + i, base + i
		}
		if ages[i] < oldest {
			oldest, victim = ages[i], i
		}
	}
	return -1, base + victim
}

// touch marks way i most recently used, dirtying it on a write.
func (c *SetAssoc) touch(i int, dirty bool) {
	if dirty {
		c.tags[i] |= dirtyBit
	}
	if c.age != nil {
		c.clock++
		c.age[i] = c.clock
	}
}

// Access looks up lineAddr and, on a miss, fills it (allocate-on-miss
// for reads and writes alike), returning whether it hit plus the line
// the fill displaced (Valid=false if none). Write hits mark the line
// dirty.
func (c *SetAssoc) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	i, victim := c.lookup(lineAddr)
	if i < 0 {
		c.stats.Misses++
		return false, c.fill(victim, lineAddr, write)
	}
	c.stats.Hits++
	c.touch(i, write)
	return true, Line{}
}

// Probe reports whether the line is present without changing
// replacement state.
func (c *SetAssoc) Probe(lineAddr uint64) bool {
	i, _ := c.lookup(lineAddr)
	return i >= 0
}

// Invalidate removes the line if present, reporting presence and
// dirtiness. Used by the victim-cache promotion path.
func (c *SetAssoc) Invalidate(lineAddr uint64) (found, dirty bool) {
	i, _ := c.lookup(lineAddr)
	if i < 0 {
		return false, false
	}
	dirty = c.tags[i]&dirtyBit != 0
	c.tags[i] = 0
	if c.age != nil {
		c.age[i] = 0
	}
	return true, dirty
}

// Insert places a line without counting an access (fills arriving from
// below or victims arriving from above), returning the line it
// displaced if any. A line already present is refreshed, not
// duplicated, and keeps its dirtiness.
func (c *SetAssoc) Insert(lineAddr uint64, dirty bool) Line {
	i, victim := c.lookup(lineAddr)
	if i < 0 {
		return c.fill(victim, lineAddr, dirty)
	}
	c.touch(i, dirty)
	return Line{}
}

// fill installs lineAddr in way i, evicting its previous occupant.
func (c *SetAssoc) fill(i int, lineAddr uint64, dirty bool) Line {
	var ev Line
	if old := c.tags[i]; old&validBit != 0 {
		ev = Line{Addr: old >> 2, Dirty: old&dirtyBit != 0, Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tags[i] = lineAddr<<2 | validBit
	c.touch(i, dirty)
	return ev
}
