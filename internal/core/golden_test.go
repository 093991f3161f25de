package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/traffic.json (only after a core.ModelVersion bump)")

const trafficGolden = "testdata/golden/traffic.json"

// goldenCell is one recorded simulation: the full traffic ledger plus
// every instantiated cache level's counters.
type goldenCell struct {
	Traffic memsim.Traffic      `json:"traffic"`
	Levels  []memsim.LevelStats `json:"levels"`
}

type goldenFile struct {
	ModelVersion string                `json:"model_version"`
	Cells        map[string]goldenCell `json:"cells"`
}

type goldenWorkload struct {
	name string
	wl   trace.Workload
}

// goldenWorkloads returns one workload per simulated kernel family,
// sized past the platform's last on-chip cache so the memory side
// (eDRAM victim or memory-side buffer, MCDRAM cache or flat region)
// carries traffic; the Stream pair also overflows the eDRAM.
func goldenWorkloads(p *platform.Platform, mat *sparse.CSR, sptrsv *trace.SpTRSV) []goldenWorkload {
	const fp = 2 << 20
	stream := int64(12 << 20) // 1.5x the scaled eDRAM
	if p.Name == "knl" {
		stream = 4 << 20
	}
	return []goldenWorkload{
		{"Stream", trace.NewStream(stream)},
		{"CoStream", trace.NewCoStream(stream/2, stream/4)},
		{"Stencil", trace.NewStencil(fp, p.Scale)},
		{"FFT", trace.NewFFT(fp)},
		{"GEMM", &trace.GEMM{N: 160, NB: 48}},
		{"Cholesky", &trace.Cholesky{N: 192, NB: 64}},
		{"SpMV", &trace.SpMV{M: mat}},
		{"SpTRANS", &trace.SpTRANS{M: mat}},
		{"SpTRSV", sptrsv},
	}
}

// computeGolden simulates every golden workload on every mode of every
// modelled platform through Machine.RunOn. Modes with an MCDRAM cache
// or flat region add a Stream above the MCDRAM capacity: it spills
// flat mode into DDR (SplitFlat), drives hybrid's cached half and
// thrashes the cache-mode MCDRAM.
func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	mat := sparse.RMAT(1<<14, 1<<17, 7)
	sptrsv, err := trace.NewSpTRSV(mat)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenFile{ModelVersion: ModelVersion, Cells: map[string]goldenCell{}}
	for _, p := range platform.AllWithExtensions() {
		machines, err := Machines(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			sim, err := memsim.NewSim(m.Config())
			if err != nil {
				t.Fatal(err)
			}
			wls := goldenWorkloads(p, mat, sptrsv)
			if mc := m.Config().MCDRAMBytes; mc > 0 {
				big := mc + mc/16
				wls = append(wls, goldenWorkload{fmt.Sprintf("Stream-%dMiB", big>>20), trace.NewStream(big)})
			}
			for _, w := range wls {
				if _, err := m.RunOn(sim, w.wl); err != nil {
					t.Fatalf("%s %s: %v", m.Label(), w.name, err)
				}
				g.Cells[m.Label()+"/"+w.name] = goldenCell{Traffic: sim.Traffic(), Levels: sim.LevelStats()}
			}
		}
	}
	return g
}

// TestTrafficGolden pins the exact simulator's traffic and per-level
// cache counts for every kernel family on every mode. A change that
// moves any of them must bump ModelVersion and rerun with -update
// (make golden); -update refuses to rewrite the ledger under the
// version it was recorded with.
func TestTrafficGolden(t *testing.T) {
	got := computeGolden(t)
	raw, err := os.ReadFile(trafficGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("reading golden (create it with go test -run TestTrafficGolden -update): %v", err)
	}
	var want goldenFile
	if err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("decoding %s: %v", trafficGolden, err)
		}
	}
	drift := diffGolden(got, want)
	if *update {
		switch {
		case raw != nil && len(drift) == 0:
			t.Logf("%s is up to date", trafficGolden)
		case raw != nil && want.ModelVersion == ModelVersion:
			t.Fatalf("refusing to rewrite %s under unchanged ModelVersion %q: bump core.ModelVersion, then rerun -update (%d drifted fields, first: %s)",
				trafficGolden, ModelVersion, len(drift), drift[0])
		default:
			out, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(trafficGolden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(trafficGolden, append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d cells, %s)", trafficGolden, len(got.Cells), ModelVersion)
		}
		return
	}
	if want.ModelVersion != ModelVersion {
		t.Errorf("golden recorded under %q, code is %q: rerun with -update (make golden)", want.ModelVersion, ModelVersion)
	}
	for _, d := range drift {
		t.Error(d)
	}
}

// diffGolden lists every cell and field where got and want differ,
// e.g. "knl/cache/Stream: traffic.WBBytes[DDR]: got 5, want 4".
func diffGolden(got, want goldenFile) []string {
	var out []string
	for _, name := range sortedKeys(got.Cells, want.Cells) {
		g, gok := got.Cells[name]
		w, wok := want.Cells[name]
		switch {
		case !wok:
			out = append(out, name+": cell missing from golden")
			continue
		case !gok:
			out = append(out, name+": golden cell no longer simulated")
			continue
		}
		diffValue(name+": traffic", reflect.ValueOf(g.Traffic), reflect.ValueOf(w.Traffic), &out)
		if len(g.Levels) != len(w.Levels) {
			out = append(out, fmt.Sprintf("%s: levels: got %d, want %d", name, len(g.Levels), len(w.Levels)))
			continue
		}
		for i := range g.Levels {
			if g.Levels[i].Level != w.Levels[i].Level {
				out = append(out, fmt.Sprintf("%s: levels[%d]: got %s, want %s", name, i, g.Levels[i].Level, w.Levels[i].Level))
				continue
			}
			diffValue(name+": "+g.Levels[i].Level, reflect.ValueOf(g.Levels[i].Stats), reflect.ValueOf(w.Levels[i].Stats), &out)
		}
	}
	return out
}

// diffValue walks structs and per-source arrays, reporting each leaf
// that differs under its field path.
func diffValue(path string, got, want reflect.Value, out *[]string) {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			diffValue(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i), out)
		}
	case reflect.Array: // the Traffic arrays are indexed by memsim.Source
		for i := 0; i < got.Len(); i++ {
			diffValue(fmt.Sprintf("%s[%s]", path, memsim.Source(i)), got.Index(i), want.Index(i), out)
		}
	default:
		if g, w := got.Interface(), want.Interface(); g != w {
			*out = append(*out, fmt.Sprintf("%s: got %v, want %v", path, g, w))
		}
	}
}

func sortedKeys(a, b map[string]goldenCell) []string {
	union := maps.Clone(a)
	maps.Copy(union, b)
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
