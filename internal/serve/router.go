package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sweep"
)

// The router picks which persistent worker shard runs a cold cell.
// Workers pool one simulator per machine configuration (sweep.Worker),
// so shard choice is a cache decision: a digest that previously landed
// on a warm shard finds its pooled simulators hot.

// leastLoaded picks the minimum-depth shard, lowest index on ties —
// deterministic under equal load.
func leastLoaded(loads []int64) int {
	best := 0
	for i, l := range loads {
		if l < loads[best] {
			best = i
		}
	}
	return best
}

// affinityRouter routes a digest back to the shard that computed it
// last (warm pooled simulators), falling back to least-loaded for new
// digests. The digest→shard map is bounded by FIFO eviction, so a
// digest churned out of the map simply re-routes by load.
type affinityRouter struct {
	mu     sync.Mutex
	shards map[string]int
	ring   []string
	head   int
	cap    int
}

func (r *affinityRouter) pick(key string, loads []int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard, ok := r.shards[key]; ok && shard < len(loads) {
		return shard
	}
	shard := leastLoaded(loads)
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, key)
	} else {
		delete(r.shards, r.ring[r.head])
		r.ring[r.head] = key
		r.head = (r.head + 1) % r.cap
	}
	r.shards[key] = shard
	return shard
}

// task is one unit of work submitted to a shard.
type task struct {
	fn   func(w *sweep.Worker)
	done chan struct{}
}

// workerPool is the fixed set of persistent sweep workers the affinity
// router schedules over. Each shard owns one sweep.Worker for its
// goroutine's lifetime, so pooled simulators stay warm across requests
// — the whole point of affinity routing.
type workerPool struct {
	route  *affinityRouter
	queues []chan *task
	loads  []atomic.Int64
	wg     sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{
		route:  &affinityRouter{shards: map[string]int{}, cap: 1 << 16},
		queues: make([]chan *task, n),
		loads:  make([]atomic.Int64, n),
	}
	for i := 0; i < n; i++ {
		q := make(chan *task, 1024)
		p.queues[i] = q
		p.wg.Add(1)
		go func(shard int, q chan *task) {
			defer p.wg.Done()
			w := sweep.NewWorker(shard)
			for t := range q {
				t.fn(w)
				p.loads[shard].Add(-1)
				close(t.done)
			}
		}(i, q)
	}
	return p
}

func (p *workerPool) size() int { return len(p.queues) }

func (p *workerPool) snapshot() []int64 {
	out := make([]int64, len(p.loads))
	for i := range p.loads {
		out[i] = p.loads[i].Load()
	}
	return out
}

// run executes fn on the shard the router picks for key and waits for
// it to finish, returning the shard. Admission control bounds how many
// callers can be here at once, so the per-shard queues cannot grow
// unboundedly. ctx bounds the enqueue: a caller cancelled while its
// shard's queue is full gets ctx's error back and fn never runs. Once
// the task is enqueued the completion wait is unconditional — the
// shard goroutine drains its queue in order, and fn itself observes
// ctx — so fn has always finished (or never started) when run returns
// and the caller may read fn's captured results without racing.
func (p *workerPool) run(ctx context.Context, key string, fn func(w *sweep.Worker)) (int, error) {
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	shard := p.route.pick(key, p.snapshot())
	p.loads[shard].Add(1)
	t := &task{fn: fn, done: make(chan struct{})}
	select {
	case p.queues[shard] <- t:
	case <-ctx.Done():
		p.loads[shard].Add(-1)
		return shard, ctx.Err()
	}
	<-t.done
	return shard, nil
}

// close shuts the shards down after in-flight tasks finish. The caller
// must guarantee no further run calls (the server drains first). ctx
// bounds the wait for the shard goroutines to exit.
func (p *workerPool) close(ctx context.Context) error {
	for _, q := range p.queues {
		close(q)
	}
	exited := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: worker pool shutdown interrupted: %w", ctx.Err())
	}
}
