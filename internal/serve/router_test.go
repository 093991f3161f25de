package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sweep"
)

func TestLeastLoadedPicksMinimum(t *testing.T) {
	if got := leastLoaded([]int64{3, 1, 2}); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	// Ties break to the lowest index — deterministic under equal load.
	if got := leastLoaded([]int64{2, 0, 0}); got != 1 {
		t.Fatalf("tie pick = %d, want 1", got)
	}
}

func TestAffinityStickyAndEviction(t *testing.T) {
	r := &affinityRouter{shards: map[string]int{}, cap: 2}
	// New key routes by load...
	if got := r.pick("a", []int64{5, 0, 0}); got != 1 {
		t.Fatalf("first pick = %d, want least-loaded 1", got)
	}
	// ...and sticks there regardless of later load.
	if got := r.pick("a", []int64{0, 9, 0}); got != 1 {
		t.Fatalf("sticky pick = %d, want 1", got)
	}
	// FIFO eviction past cap: a and b fill the map, c evicts a.
	r.pick("b", []int64{0, 9, 9})
	r.pick("c", []int64{9, 9, 0})
	if got := r.pick("a", []int64{9, 0, 9}); got != 1 {
		t.Fatalf("evicted key re-pick = %d, want least-loaded 1", got)
	}
}

func TestWorkerPoolRunsOnPickedShard(t *testing.T) {
	pool := newWorkerPool(3)
	var mu sync.Mutex
	ran := map[string]int{} // key → worker ID that ran it
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("k%d", i%2)
		shard, err := pool.run(context.Background(), key, func(w *sweep.Worker) {
			mu.Lock()
			if prev, ok := ran[key]; ok && prev != w.ID() {
				t.Errorf("key %s ran on worker %d, then %d", key, prev, w.ID())
			}
			ran[key] = w.ID()
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if shard < 0 || shard >= 3 {
			t.Fatalf("run returned shard %d outside pool", shard)
		}
		mu.Lock()
		id := ran[key]
		mu.Unlock()
		if id != shard {
			t.Fatalf("key %s: run returned shard %d but worker %d ran it", key, shard, id)
		}
	}
	for i, l := range pool.snapshot() {
		if l != 0 {
			t.Fatalf("shard %d load %d after quiesce, want 0", i, l)
		}
	}
	if err := pool.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}
