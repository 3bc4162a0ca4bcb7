package scenario

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Every workload the cmd/ drivers and the campaign depend on must stay
// registered under its canonical name.
func TestRegistryHasCanonicalScenarios(t *testing.T) {
	want := []string{
		"capsule", "cubesphere", "network-honeycomb", "network-json",
		"network-tree", "network-y", "shear", "torus", "trefoil",
	}
	got := Names()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %q not registered (have %v)", w, got)
		}
	}
	if len(All()) != len(got) {
		t.Errorf("All() and Names() disagree: %d vs %d", len(All()), len(got))
	}
}

func TestBuildSteppableScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several surfaces")
	}
	cases := map[string]Params{
		"torus":        {MaxCells: 2},
		"trefoil":      {MaxCells: 2},
		"capsule":      {MaxCells: 2},
		"shear":        {},
		"network-y":    {MaxCells: 2},
		"network-tree": {MaxCells: 2, Depth: 1},
	}
	for name, p := range cases {
		b, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.Cells) == 0 {
			t.Errorf("%s: no cells", name)
		}
		if b.Config.SphOrder == 0 || b.Config.Dt == 0 {
			t.Errorf("%s: config not filled: %+v", name, b.Config)
		}
		if name != "shear" && b.Surf == nil {
			t.Errorf("%s: no surface", name)
		}
		if strings.HasPrefix(name, "network-") {
			if b.Geom.Net == nil || b.Geom.Flow == nil || len(b.Haematocrit) == 0 {
				t.Errorf("%s: network bundle incomplete", name)
			}
		}
	}
}

func TestCubesphereIsGeometryOnly(t *testing.T) {
	s := MustGet("cubesphere")
	if s.Steppable {
		t.Fatal("cubesphere must be geometry-only")
	}
	b, err := s.Build(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Surf == nil || b.Surf.F.NumPatches() != 6 {
		t.Fatalf("cubesphere surface wrong: %+v", b.Surf)
	}
}

func TestParamsSetCoversSweepKeys(t *testing.T) {
	for _, k := range SweepKeys() {
		var p Params
		if err := p.Set(k, 2); err != nil {
			t.Errorf("Set(%q): %v", k, err)
		}
		if reflect.DeepEqual(p, Params{}) {
			t.Errorf("Set(%q) changed nothing", k)
		}
	}
	var p Params
	if err := p.Set("no_such_axis", 1); err == nil {
		t.Error("unknown axis accepted")
	}
}

// TestParseSweepAndParams: the one parser of -sweep, -params and nothing
// else. Spaces around ';', ',' and '=' are ignored; a key given twice, or
// given two values where one point is wanted, is refused; an unknown key
// and a value that is not a number are *ConfigErrors naming the key.
func TestParseSweepAndParams(t *testing.T) {
	axes, err := ParseSweep(" hct = 0.1 , 0.2 ;level=0,1 ; ")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string][]float64{"hct": {0.1, 0.2}, "level": {0, 1}}; !reflect.DeepEqual(axes, want) {
		t.Fatalf("ParseSweep: %v, want %v", axes, want)
	}
	p, err := ParseParams(" max_cells = 8 ; hct=0.3;depth= 3 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Params{MaxCells: 8, Hct: 0.3, Depth: 3}); p != want {
		t.Fatalf("ParseParams: %+v, want %+v", p, want)
	}
	if p, err := ParseParams(""); err != nil || p != (Params{}) {
		t.Fatalf("empty -params: %+v, %v", p, err)
	}
	for _, tc := range []struct{ in, key, want string }{
		{"hct=0.1;hct=0.2", "hct", "given twice"},
		{"max_cells=4,8", "max_cells", "one value"},
		{"bogus=1", "bogus", "unknown sweep key"},
		{"ranks=2", "ranks", "unknown sweep key"},
		{"level=one", "level", "not a number"},
	} {
		_, err := ParseParams(tc.in)
		var cerr *ConfigError
		if !errors.As(err, &cerr) || cerr.Field != tc.key || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseParams(%q): %v, want a *ConfigError on %s saying %q", tc.in, err, tc.key, tc.want)
		}
	}
	for _, in := range []string{"hct=0.1;hct=0.2", "level=0,x"} {
		if _, err := ParseSweep(in); err == nil {
			t.Errorf("ParseSweep(%q) accepted", in)
		}
	}
	if _, err := ParseSweep("hct"); err == nil {
		t.Error("axis without '=' accepted")
	}
}

func TestParamsSignatureDeterministic(t *testing.T) {
	a := Params{SphOrder: 4, Hct: 0.12, Level: 1}
	b := Params{Level: 1, Hct: 0.12, SphOrder: 4}
	if a.Signature() != b.Signature() {
		t.Fatalf("equal params, different signatures: %q vs %q", a.Signature(), b.Signature())
	}
	c := a
	c.Hct = 0.2
	if a.Signature() == c.Signature() {
		t.Fatal("different params, equal signatures")
	}
}

func TestExpandSweepDeterministic(t *testing.T) {
	cfg := &CampaignConfig{
		Scenarios: []string{"shear", "torus"},
		Sweep:     map[string][]float64{"max_cells": {2, 4}, "level": {0, 1}},
	}
	specs, err := ExpandSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("want 2 scenarios × 4 grid points = 8 specs, got %d", len(specs))
	}
	// Axes expand sorted by key: level before max_cells.
	wantFirst := []string{
		"shear_level0_maxcells2", "shear_level0_maxcells4",
		"shear_level1_maxcells2", "shear_level1_maxcells4",
	}
	for i, w := range wantFirst {
		if specs[i].ID != w {
			t.Fatalf("spec %d = %q, want %q", i, specs[i].ID, w)
		}
	}
	again, _ := ExpandSweep(cfg)
	for i := range specs {
		if specs[i].ID != again[i].ID || specs[i].Params != again[i].Params {
			t.Fatalf("expansion not deterministic at %d", i)
		}
	}
	if _, err := ExpandSweep(&CampaignConfig{
		Scenarios: []string{"torus"},
		Sweep:     map[string][]float64{"bogus": {1}},
	}); err == nil {
		t.Fatal("bogus sweep axis accepted")
	}
	if _, err := ExpandSweep(&CampaignConfig{Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestSweepRanksAxis: "ranks" is a sweep axis that sets RunSpec.Ranks — not
// a Params key, so a served request cannot set it through params — and a
// value that is not a positive integer is a *ConfigError.
func TestSweepRanksAxis(t *testing.T) {
	specs, err := ExpandSweep(&CampaignConfig{
		Scenarios: []string{"torus"},
		Sweep:     map[string][]float64{"ranks": {1, 4}, "level": {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].ID != "torus_level1_ranks1" || specs[1].ID != "torus_level1_ranks4" {
		t.Fatalf("specs: %+v", specs)
	}
	if specs[0].Ranks != 1 || specs[1].Ranks != 4 || specs[1].Params != (Params{Level: 1}) {
		t.Fatalf("ranks axis: %+v", specs)
	}
	for _, v := range []float64{0, -2, 1.5, math.NaN(), math.Inf(1), 1e12, MaxRanks + 1, 1e9} {
		_, err := ExpandSweep(&CampaignConfig{Scenarios: []string{"torus"}, Sweep: map[string][]float64{"ranks": {v}}})
		var cerr *ConfigError
		if !errors.As(err, &cerr) || cerr.Field != "ranks" {
			t.Errorf("ranks=%g: want *ConfigError on ranks, got %v", v, err)
		}
	}
	var p Params
	if err := p.Set("ranks", 2); err == nil {
		t.Error("ranks is not a Params key")
	}
	// The bound holds at Resolve too, for a spec that never saw a sweep:
	// MaxRanks passes, one more is refused before any world exists.
	for _, tc := range []struct {
		ranks int
		ok    bool
	}{{MaxRanks, true}, {MaxRanks + 1, false}, {1_000_000_000, false}} {
		_, err := RunSpec{Scenario: "shear", Ranks: tc.ranks}.Resolve()
		var cerr *ConfigError
		if tc.ok && err != nil {
			t.Errorf("ranks=%d: %v, want accepted", tc.ranks, err)
		}
		if !tc.ok && (!errors.As(err, &cerr) || cerr.Field != "ranks") {
			t.Errorf("ranks=%d: want *ConfigError on ranks, got %v", tc.ranks, err)
		}
	}
}

// TestParamsValidation: a negative count or size, a non-finite value, or an
// integer axis outside the int range is refused with a *ConfigError naming
// the key — by a campaign before any run starts, and by Runner.Run before
// anything is built. Gravity and seed keep their sign.
func TestParamsValidation(t *testing.T) {
	for _, tc := range []struct {
		scenario, key string
		v             float64
	}{
		{"shear", "sph_order", -3}, {"torus", "level", -1}, {"torus", "max_cells", -5},
		{"network-tree", "depth", -2}, {"shear", "dt", -0.1}, {"capsule", "spacing", -1},
		{"shear", "dt", math.NaN()}, {"capsule", "gravity", math.Inf(-1)},
		{"torus", "level", 1e300}, {"shear", "seed", math.Inf(1)},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		_, err := RunCampaignContext(context.Background(), &CampaignConfig{
			Scenarios: []string{tc.scenario}, Sweep: map[string][]float64{tc.key: {tc.v}},
		}, dir, io.Discard)
		var cerr *ConfigError
		if !errors.As(err, &cerr) || cerr.Field != tc.key {
			t.Errorf("%s=%g: want *ConfigError on %s, got %v", tc.key, tc.v, tc.key, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s=%g: the campaign started (output dir exists)", tc.key, tc.v)
		}
	}
	for _, p := range []Params{{SphOrder: -3}, {Level: -1}, {MaxCells: -5}, {Depth: -2}, {Dt: -0.1}, {Mu: math.NaN()}} {
		rec := (&Runner{}).Run(context.Background(), RunSpec{Scenario: "shear", Params: p, Steps: 1})
		if rec.Status != "failed" || !strings.Contains(rec.Error, "invalid ") {
			t.Errorf("%+v: status %s (%s), want failed by validation", p, rec.Status, rec.Error)
		}
	}
	if err := (Params{Gravity: -1.5, Seed: -4}).Validate(); err != nil {
		t.Errorf("signed gravity and seed refused: %v", err)
	}
}
