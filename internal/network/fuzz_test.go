package network

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonSeeds are the committed FuzzNetworkJSON seeds: the Y, a depth-2 tree
// fed by an inflow with pressure outlets, and the Y with a parent radius
// whose r⁴ overflows.
func jsonSeeds(t *testing.T) map[string][]byte {
	tree := BinaryTree(TreeParams{Depth: 2, RootRadius: 1, RootLen: 5})
	tree.SetFlow(0, 1)
	for i, d := range tree.Degree() {
		if d == 1 && i != 0 {
			tree.SetPressure(i, 0)
		}
	}
	huge := testY()
	huge.Segs[0].Radius = 1e80
	seeds := map[string][]byte{}
	for name, n := range map[string]*Network{"y": testY(), "tree-depth2": tree, "radius-1e80": huge} {
		b, err := n.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds[name] = b
	}
	return seeds
}

func jsonSeedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzNetworkJSON", name)
}

// TestNetworkJSONFuzzSeeds: the committed corpus is the builders' networks
// in the on-disk schema; -update-golden rewrites it.
func TestNetworkJSONFuzzSeeds(t *testing.T) {
	for name, b := range jsonSeeds(t) {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
		path := jsonSeedPath(name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-golden)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed seed differs from the builder's network (regenerate with -update-golden)", name)
		}
	}
}

// TestSolveFlowRejectsNonFiniteConductance: a radius whose r⁴ overflows, or
// underflows to zero, is an error naming the segment, not NaN flows; so is
// an inflow whose pressures overflow.
func TestSolveFlowRejectsNonFiniteConductance(t *testing.T) {
	for _, r := range []float64{1e80, 1e-90} {
		n := testY()
		n.Segs[1].Radius = r
		sol, err := SolveFlow(n, 1)
		if err == nil {
			t.Fatalf("radius %g: no error, P %v Q %v", r, sol.P, sol.Q)
		}
		if !strings.Contains(err.Error(), "segment 1") {
			t.Errorf("radius %g: error %q does not name segment 1", r, err)
		}
	}
	// Finite conductances, but pressures beyond the float64 range.
	n := testY()
	n.SetFlow(0, 1e308)
	if sol, err := SolveFlow(n, 1); err == nil {
		t.Errorf("inflow 1e308: no error, P %v Q %v", sol.P, sol.Q)
	}
}

// FuzzNetworkJSON: whatever the decoder makes of its input, a network that
// Validate accepts either fails SolveFlow with an error or solves to finite
// pressures and flows.
func FuzzNetworkJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if n.UnmarshalJSON(data) != nil || n.Validate() != nil {
			return
		}
		sol, err := SolveFlow(&n, 1)
		if err != nil {
			return
		}
		for i, p := range sol.P {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("node %d: pressure %g with no error", i, p)
			}
		}
		for s, q := range sol.Q {
			if math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("segment %d: flow %g with no error", s, q)
			}
		}
	})
}
