// Package cache provides the one cache model the on-package-memory
// (OPM) hierarchy simulator builds every level from: SetAssoc, a
// set-associative true-LRU cache. A direct-mapped cache (the MCDRAM
// cache mode on Knights Landing) is its 1-way instance; how a level is
// wired into the hierarchy (inclusive fill, victim cache, memory-side
// buffer) is the simulator's business, not the cache's.
//
// All caches operate on line addresses (byte address >> LineShift) so
// callers can coalesce consecutive accesses cheaply. Caches are not
// safe for concurrent use; the simulator serializes the interleaved
// access stream of all virtual threads.
package cache

// LineSize is the cache line size in bytes used across the simulator.
// Both Broadwell and Knights Landing use 64-byte lines.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LineAddr converts a byte address into a line address.
func LineAddr(byteAddr uint64) uint64 { return byteAddr >> LineShift }

// Stats accumulates access statistics for one cache.
type Stats struct {
	Accesses   uint64 // total lookups
	Hits       uint64 // lookups that found the line
	Misses     uint64 // lookups that did not
	Evictions  uint64 // valid lines displaced by fills
	Writebacks uint64 // dirty lines displaced by fills
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Line describes a line displaced from a cache by a fill.
type Line struct {
	Addr  uint64 // line address of the displaced line
	Dirty bool   // whether it must be written back
	Valid bool   // false when the fill landed in an empty way
}
