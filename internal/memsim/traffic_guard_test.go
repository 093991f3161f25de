package memsim

import (
	"reflect"
	"testing"
)

// trafficFieldPolicy is the explicit per-field decision table for
// Sim.ResetTraffic: true means the field is allocator/placement state
// that survives a traffic reset (warm-up discard), false means it is a
// measurement counter that must be cleared. Adding a field to Traffic
// without deciding here fails TestResetTrafficFieldGuard — the
// catch-the-next-field guard for the Reset/ResetTraffic asymmetry.
var trafficFieldPolicy = map[string]bool{
	"Bytes":          false,
	"WBBytes":        false,
	"Lines":          false,
	"MCTagLines":     false,
	"Accesses":       false,
	"FootprintBytes": true,
	"SplitFlat":      true,
}

// fillNonZero sets every field of a Traffic to a nonzero value via
// reflection so a forgotten field cannot hide behind its zero value.
func fillNonZero(t *testing.T, tr *Traffic) {
	t.Helper()
	v := reflect.ValueOf(tr).Elem()
	var fillValue func(f reflect.Value)
	fillValue = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Uint:
			f.SetUint(7)
		case reflect.Int64, reflect.Int32, reflect.Int:
			f.SetInt(7)
		case reflect.Float64, reflect.Float32:
			f.SetFloat(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Array, reflect.Slice:
			for i := 0; i < f.Len(); i++ {
				fillValue(f.Index(i))
			}
		default:
			t.Fatalf("Traffic field kind %s not handled by the guard; extend fillNonZero", f.Kind())
		}
	}
	for i := 0; i < v.NumField(); i++ {
		fillValue(v.Field(i))
	}
}

// TestResetTrafficFieldGuard verifies ResetTraffic's hand-written
// preservation list stays consistent with the Traffic struct as it
// grows: every field must be either explicitly preserved or explicitly
// cleared, per trafficFieldPolicy, and any field missing from the
// policy table fails loudly.
func TestResetTrafficFieldGuard(t *testing.T) {
	typ := reflect.TypeOf(Traffic{})
	if typ.NumField() != len(trafficFieldPolicy) {
		for i := 0; i < typ.NumField(); i++ {
			if _, ok := trafficFieldPolicy[typ.Field(i).Name]; !ok {
				t.Fatalf("Traffic grew field %q: decide whether ResetTraffic preserves it "+
					"(allocator state) or clears it (measurement counter), update ResetTraffic "+
					"accordingly, then record the decision in trafficFieldPolicy", typ.Field(i).Name)
			}
		}
		t.Fatalf("trafficFieldPolicy lists %d fields, Traffic has %d — remove stale entries",
			len(trafficFieldPolicy), typ.NumField())
	}

	s := testSim(t, testConfig(ModeFlat))
	var filled Traffic
	fillNonZero(t, &filled)
	s.traffic = filled
	s.ResetTraffic()

	got := reflect.ValueOf(s.traffic)
	want := reflect.ValueOf(filled)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		g, w := got.Field(i), want.Field(i)
		if trafficFieldPolicy[name] {
			if !reflect.DeepEqual(g.Interface(), w.Interface()) {
				t.Errorf("ResetTraffic must preserve %s: got %v, want %v", name, g, w)
			}
		} else if !g.IsZero() {
			t.Errorf("ResetTraffic must clear %s, left %v", name, g)
		}
	}

	// Full Reset clears everything, preserved fields included.
	s.traffic = filled
	s.Reset()
	if s.traffic != (Traffic{}) {
		t.Errorf("Reset left traffic %+v", s.traffic)
	}
}

// TestResetTrafficAfterRealRun exercises the documented warm-up-discard
// use: after a real pass, footprint and split flag survive while every
// counter restarts from zero and a second pass measures steady state.
func TestResetTrafficAfterRealRun(t *testing.T) {
	s := testSim(t, testConfig(ModeFlat))
	s.Alloc("big", 60<<10)
	spill := s.Alloc("spill", 16<<10) // straddles MCDRAM and DDR
	spill.LoadLines(0, spill.Size())
	before := s.Traffic()
	if !before.SplitFlat || before.FootprintBytes != 76<<10 {
		t.Fatalf("setup traffic %+v", before)
	}
	s.ResetTraffic()
	after := s.Traffic()
	if after.FootprintBytes != before.FootprintBytes || after.SplitFlat != before.SplitFlat {
		t.Fatalf("allocator state lost: %+v", after)
	}
	if after.Accesses != 0 || after.TotalMemBytes() != 0 {
		t.Fatalf("counters survived ResetTraffic: %+v", after)
	}
}
