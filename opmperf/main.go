// Command opmperf is the repository's end-to-end benchmark. One run
// takes a workload name and a seed, generates its inputs from the seed,
// times calls into the public functions of the sparse, trace, memsim,
// core, sweep, harness, twin, store and serve packages, checks their
// outputs, and prints every metric by name with its unit.
//
//	go build -o opmperf . && ./opmperf --workload exact-sparse --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run that
// alternates untraced and traced passes over the same inputs. The line
// before it is the run record: host fingerprint, output digest and the
// exact counts two runs of one seed must agree on. README.md documents
// every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// commit is stamped by run.sh with -ldflags "-X main.commit=<sha>".
var commit = "unknown"

// workers bounds sweep workers, serve workers and clients alike: the
// benchmark never runs more of them than the host has cores, and never
// more than two, so figures from a larger host stay comparable.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runConfig is one run's parameters.
type runConfig struct {
	seed    uint64
	budget  time.Duration // how long the measured passes run
	traced  bool
	scratch string // directory for the run's temporary stores
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted, failed int
	problems          []string // why each failure counted
	digest            string   // output digest of one pass
	counts            map[string]int64
	e2e               map[string]metric
	layer             map[string]metric
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one benchmark workload; README.md says why each exists.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig, size sizes) (*outcome, error)
}

var workloads = []workload{
	{"exact-sparse", runExactSparse},
	{"serve-mix", runServeMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("opmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exact-sparse or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := fs.Bool("record-digest", false, "record this run's digest in digests.json (run from the benchmark directory's parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "opmperf: need --workload (exact-sparse|serve-mix), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	scratch := filepath.Join(".bench_build", "opmperf-scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "opmperf: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "opmperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rc := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1, scratch: dir}
	out, err := w.run(context.Background(), rc, fullSizes)
	if err != nil {
		fmt.Fprintf(stderr, "opmperf: %s: %v\n", w.name, err)
		return 1
	}
	digests, err := loadDigests(digestFile)
	if err != nil {
		fmt.Fprintf(stderr, "opmperf: %v\n", err)
		return 1
	}
	key := digestKey(w.name, *seed)
	if want, ok := digests[key]; ok && want != out.digest {
		out.fail("output digest %s differs from the recorded %s for %s", out.digest, want, key)
	}
	if *record {
		digests[key] = out.digest
		if err := saveDigests(digestFile, digests); err != nil {
			fmt.Fprintf(stderr, "opmperf: %v\n", err)
			return 1
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "opmperf: FAIL %s\n", p)
	}
	metrics := out.layer
	if !rc.traced {
		metrics = out.e2e
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		metrics["success_ratio"] = metric{1 - float64(out.failed)/float64(out.attempted), "ratio"}
	}
	rec := map[string]any{
		"workload": w.name,
		"seed":     *seed,
		"traced":   rc.traced,
		"digest":   out.digest,
		"counts":   out.counts,
		"host":     fingerprint(),
	}
	if err := writeJSONLine(stdout, map[string]any{"record": rec}); err != nil {
		fmt.Fprintf(stderr, "opmperf: %v\n", err)
		return 1
	}
	res := map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "opmperf: %v\n", err)
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// fingerprint identifies the host and build a record was taken on, so
// records from different machines or commits are never compared as if
// they were alike.
func fingerprint() map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"goarch":        runtime.GOARCH,
		"commit":        commit,
		"model_version": core.ModelVersion,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// digestFile holds the output digests recorded per (workload, seed,
// model version, architecture). A run whose digest differs from a
// recorded one counts a failure: the simulator is deterministic, so a
// change that moves output bytes must also bump core.ModelVersion.
const digestFile = "opmperf/digests.json"

func digestKey(workload string, seed uint64) string {
	return fmt.Sprintf("%s|%d|%s|%s", workload, seed, core.ModelVersion, runtime.GOARCH)
}

func loadDigests(path string) (map[string]string, error) {
	m := map[string]string{}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func saveDigests(path string, m map[string]string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digestOf hashes canonical result bytes, each length-prefixed, into an
// output digest.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
