package bie_test

import (
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/scenario"
)

// TestRigidWallLayoutOnRegisteredWalls: on the torus L0 and network-y walls
// the four-row blocks hold the row-major operator and sum it to the same
// bits, on this machine's kernel and on the portable loop.
func TestRigidWallLayoutOnRegisteredWalls(t *testing.T) {
	if testing.Short() {
		t.Skip("two 3750² operators: non-short only")
	}
	for _, name := range []string{"torus", "network-y"} {
		t.Run(name, func(t *testing.T) {
			var p scenario.Params
			p.Defaults()
			g, err := scenario.MustGet(name).BuildGeometry(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bie.CheckRigidWallLayout(t, g.Surf)
		})
	}
}
