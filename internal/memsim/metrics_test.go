package memsim

import (
	"testing"

	"repro/internal/obs"
)

// TestLevelStatsPerMode checks each mode exposes exactly its
// instantiated levels, nearest first.
func TestLevelStatsPerMode(t *testing.T) {
	want := map[Mode][]string{
		// testConfig gives the eDRAM modes an L3 (Broadwell-like) and
		// the MCDRAM modes none (KNL-like).
		ModeDDR:          {"l1", "l2", "l3"},
		ModeEDRAM:        {"l1", "l2", "l3", "edram"},
		ModeEDRAMMemSide: {"l1", "l2", "l3", "edram_ms"},
		ModeCache:        {"l1", "l2", "mcdram_cache"},
		ModeFlat:         {"l1", "l2"},
		ModeHybrid:       {"l1", "l2", "mcdram_cache"},
	}
	for mode, levels := range want {
		s := testSim(t, testConfig(mode))
		got := s.LevelStats()
		if len(got) != len(levels) {
			t.Fatalf("%s: %d levels, want %v", mode, len(got), levels)
		}
		for i, ls := range got {
			if ls.Level != levels[i] {
				t.Errorf("%s: level[%d] = %q, want %q", mode, i, ls.Level, levels[i])
			}
		}
	}
}

// TestRecordMetricsAccumulates drives two identical runs into one
// registry and checks the counters doubled — the per-job snapshot
// contract the sweep harness relies on.
func TestRecordMetricsAccumulates(t *testing.T) {
	cfg := testConfig(ModeCache)
	run := func(s *Sim) {
		b := s.Alloc("b", 48<<10)
		b.LoadLines(0, b.Size())
		b.StoreLines(0, b.Size())
	}
	reg := obs.NewRegistry()
	s := testSim(t, cfg)
	run(s)
	s.RecordMetrics(reg)
	first := reg.Snapshot().Counters
	if first["memsim/runs"] != 1 {
		t.Fatalf("runs = %d", first["memsim/runs"])
	}
	for _, key := range []string{
		"memsim/l1/accesses", "memsim/l2/misses", "memsim/mcdram_cache/accesses",
		"memsim/traffic/ddr_bytes", "memsim/traffic/accesses", "memsim/traffic/mc_tag_lines",
	} {
		if first[key] <= 0 {
			t.Errorf("counter %s not recorded (have %v)", key, first[key])
		}
	}
	s.Reset()
	run(s)
	s.RecordMetrics(reg)
	second := reg.Snapshot().Counters
	for key, v := range first {
		if second[key] != 2*v {
			t.Errorf("%s = %d after two identical runs, want %d", key, second[key], 2*v)
		}
	}
	// Disabled telemetry is a no-op, not a crash.
	s.RecordMetrics(nil)
}
