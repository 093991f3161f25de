package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
	"repro/internal/sweep"
)

// workerEnv is the re-exec protocol: the coordinator launches its own
// binary again with this variable pointing at a manifest file, and
// RunWorkerEnv — called first thing in main — diverts the process into
// the worker loop instead of the CLI.
const workerEnv = "OPMSHARD_WORKER"

// Worker exit codes. 137 mirrors a real kill -9 (128+SIGKILL), so the
// supervisor treats injected and genuine kills identically.
const (
	exitOK       = 0
	exitManifest = 3
	exitFailed   = 4
	exitKilled   = 137
)

// manifest is everything one worker process needs: its identity, its
// slice of the plan, and the chaos spec. Written by the coordinator,
// read once by the re-exec'd child.
type manifest struct {
	// Shard is the slot this worker serves; Generation counts restarts
	// of the slot and is the attempt number of proc-point faults.
	Shard      int `json:"shard"`
	Generation int `json:"generation"`
	// StoreDir is this worker's private journal directory — unique per
	// spawn, so a restarted worker never shares a file with an orphan
	// of its predecessor.
	StoreDir string `json:"store_dir"`
	// Heartbeat is the liveness file the worker rewrites.
	Heartbeat        string `json:"heartbeat"`
	HeartbeatEveryNS int64  `json:"heartbeat_every_ns"`
	Spec             Spec   `json:"spec"`
	Cells            []Cell `json:"cells"`
	Faults           string `json:"faults,omitempty"`
}

// RunWorkerEnv diverts the process into the shard-worker loop when the
// re-exec environment variable is set, and never returns in that case.
// Call it first in main() of any binary the coordinator may re-exec —
// cmd/opmshard does, and the shard test binary's TestMain does.
func RunWorkerEnv() {
	path := os.Getenv(workerEnv)
	if path == "" {
		return
	}
	os.Exit(runWorker(path))
}

// warnf writes a worker diagnostic to stderr, which the coordinator
// captures into the spawn's stderr.log.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shard worker: "+format+"\n", args...) //opmlint:allow errdiscard — stderr diagnostics have nowhere better to report a write failure
}

// runWorker is one worker process's whole life: read the manifest,
// rebuild the plan, compute the assigned cells into a private store
// (each Put a crash-safe checkpoint), heartbeat throughout, and exit.
func runWorker(manifestPath string) int {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		warnf("%v", err)
		return exitManifest
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		warnf("manifest: %v", err)
		return exitManifest
	}
	plan, err := NewPlan(m.Spec)
	if err != nil {
		warnf("%v", err)
		return exitManifest
	}
	var inj *faultinject.Injector
	if m.Faults != "" {
		if inj, err = faultinject.Parse(m.Faults); err != nil {
			warnf("%v", err)
			return exitManifest
		}
	}
	st, err := store.Open(m.StoreDir, nil)
	if err != nil {
		warnf("%v", err)
		return exitManifest
	}
	st.SetInjector(inj)

	every := time.Duration(m.HeartbeatEveryNS)
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	hb := newBeater(m.Heartbeat, every)
	defer hb.stop()

	ctx := context.Background() //opmlint:allow ctxflow — the worker subprocess's root: its lifetime is bounded by the supervisor's SIGKILL, not a parent context
	w := sweep.NewWorker(m.Shard)
	failed := 0
	for i, c := range m.Cells {
		hb.set(func(b *beat) { b.Next = i })
		switch inj.Proc(c.Key, m.Generation) {
		case faultinject.KindKill:
			// Abrupt death mid-cell: no store close, no final beat —
			// exactly the state a real kill -9 leaves.
			os.Exit(exitKilled)
		case faultinject.KindHang:
			// A hang must look like a live process making no progress:
			// quiesce the beater so Seq freezes, then block forever.
			// The supervisor's staleness detection kills us.
			hb.stop()
			select {}
		case faultinject.KindTorn:
			// Crash mid-append: leave a half-written frame at the
			// journal tail, then die. The merge's read-only scan must
			// step over it without repairing the file.
			tearTail(m.StoreDir)
			os.Exit(exitKilled)
		}
		if _, ok := st.GetRaw(c.Digest); ok {
			hb.set(func(b *beat) { b.Committed++ })
			continue
		}
		pt, err := sweep.Run(ctx, nil, w, c.Key, c, plan.Compute)
		if err != nil {
			warnf("%s fp=%d: %v", c.Kernel, c.FP, err)
			failed++
			hb.set(func(b *beat) { b.Failed++ })
			continue
		}
		if err := st.Put(c.Digest, c.Exp, c.Key, pt); err != nil {
			warnf("%v", err)
			failed++
			hb.set(func(b *beat) { b.Failed++ })
			continue
		}
		hb.set(func(b *beat) { b.Committed++ })
	}
	hb.set(func(b *beat) { b.Next = len(m.Cells); b.Done = true })
	hb.stop()
	if err := st.Close(); err != nil {
		warnf("%v", err)
		return exitFailed
	}
	if failed > 0 {
		return exitFailed
	}
	return exitOK
}

// tearTail appends the first bytes of a frame whose payload never
// made it to disk — a header claiming 64KiB followed by nothing. Best
// effort: the process is about to die either way.
func tearTail(storeDir string) {
	f, err := os.OpenFile(filepath.Join(storeDir, "journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], 64<<10)
	binary.BigEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	f.Write(hdr[:]) //opmlint:allow errdiscard — simulating a crash mid-append; a failed partial write is an equally valid torn tail
	f.Close()       //opmlint:allow errdiscard — the process exits abruptly right after; close is best-effort
}

// beater owns the worker's heartbeat file: state changes write through
// immediately, and a background ticker keeps Seq advancing while a
// long cell computes, so "Seq stalled" reliably means hung — never
// merely busy.
type beater struct {
	path  string
	every time.Duration

	mu      sync.Mutex
	cur     beat
	stopped bool
	quit    chan struct{}
	done    chan struct{}
}

func newBeater(path string, every time.Duration) *beater {
	h := &beater{path: path, every: every, quit: make(chan struct{}), done: make(chan struct{})}
	h.set(nil) // publish Seq 1 immediately: spawned and alive
	go h.loop()
	return h
}

func (h *beater) loop() {
	defer close(h.done)
	t := time.NewTicker(h.every)
	defer t.Stop()
	for {
		select {
		case <-h.quit:
			return
		case <-t.C:
			h.set(nil)
		}
	}
}

// set applies a state mutation (nil = liveness tick only), bumps Seq,
// and rewrites the file. Write errors are deliberately swallowed: a
// worker that cannot heartbeat looks stalled and gets killed and
// restarted by the supervisor, which is the correct recovery anyway.
func (h *beater) set(mut func(*beat)) {
	h.mu.Lock()
	if mut != nil {
		mut(&h.cur)
	}
	h.cur.Seq++
	b := h.cur
	h.mu.Unlock()
	writeBeat(h.path, b) //opmlint:allow errdiscard — an unwritable heartbeat reads as a stall; supervisor kill+restart is the intended recovery
}

// stop quiesces the beater (idempotent). After stop, Seq never
// advances again — which is exactly what the injected hang wants the
// supervisor to observe.
func (h *beater) stop() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.stopped = true
	h.mu.Unlock()
	close(h.quit)
	<-h.done
}
