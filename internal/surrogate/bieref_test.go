package surrogate

import (
	"strings"
	"testing"
)

// The BIE reference solve itself is minutes of GMRES (see cmd/campaign
// -calibrate); what is cheap to pin down is the reference identity that
// goes into the artifact fingerprint and the built-in case suite shape.
func TestBIEReferenceConfigID(t *testing.T) {
	def := BIEReferenceConfig{}.ID()
	if def != "bie:level=0,tol=1e-06,maxiter=45" {
		t.Fatalf("default reference ID drifted: %q", def)
	}
	custom := BIEReferenceConfig{Level: 1, Tol: 1e-8, MaxIter: 60}.ID()
	for _, want := range []string{"level=1", "tol=1e-08", "maxiter=60"} {
		if !strings.Contains(custom, want) {
			t.Fatalf("custom reference ID %q missing %q", custom, want)
		}
	}
	if def == custom {
		t.Fatal("distinct reference configs must have distinct IDs")
	}
}

func TestBuiltinCases(t *testing.T) {
	prm := Params{InletHct: 0.25, Gamma: 1.4}
	cases := BuiltinCases(prm)
	if len(cases) != 2 {
		t.Fatalf("want Y + depth-2 tree, got %d cases", len(cases))
	}
	wantSegs := map[string]int{"network-y": 3, "network-tree-d2": 7}
	for _, cs := range cases {
		if cs.Params.InletHct != prm.InletHct {
			t.Fatalf("case %s lost the solve params", cs.Name)
		}
		if err := cs.Net.Validate(); err != nil {
			t.Fatalf("case %s network invalid: %v", cs.Name, err)
		}
		if got := len(cs.Net.Segs); got != wantSegs[cs.Name] {
			t.Fatalf("case %s: %d segments, want %d", cs.Name, got, wantSegs[cs.Name])
		}
		// Every case must be solvable on the surrogate tier out of the box.
		res, err := Solve(cs.Net, cs.Params)
		if err != nil || !res.Converged {
			t.Fatalf("case %s does not solve on the surrogate tier: %v", cs.Name, err)
		}
	}
	if BIEReference(BIEReferenceConfig{}) == nil {
		t.Fatal("BIEReference must return a usable Reference closure")
	}
}
