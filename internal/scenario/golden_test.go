package scenario

// Golden-file test for the VTK polydata export of a blended junction: the
// exact bytes of the Y-bifurcation wall (blended junction model, fixed
// tube and sampling parameters) are pinned, and the validator must accept
// the golden file. Regenerate with:
//
//	go test ./internal/scenario -run Golden -update-golden

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/network"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func goldenYWall(t *testing.T) *bie.Surface {
	t.Helper()
	n := network.YBifurcation(network.YParams{
		ParentRadius: 1, ChildRadius: 0.75, ParentLen: 5, ChildLen: 4, HalfAngle: math.Pi / 5,
	})
	n.SetFlow(0, 2)
	n.SetPressure(2, 0)
	n.SetPressure(3, 0)
	g, err := network.BuildGeometry(n, network.TubeParams{Order: 4, AxialLen: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	return g.Surface(0, bie.Params{QuadNodes: 5, NearFactor: 0.6})
}

// compareNumericTokens compares two whitespace-tokenized streams: numeric
// tokens must agree within relTol (relative, floored absolutely), all other
// tokens byte-exactly. Returns "" on match, else a description of the first
// mismatch.
func compareNumericTokens(got, want string, relTol float64) string {
	gt, wt := strings.Fields(got), strings.Fields(want)
	if len(gt) != len(wt) {
		return fmt.Sprintf("token count %d vs %d", len(gt), len(wt))
	}
	for i := range gt {
		if gt[i] == wt[i] {
			continue
		}
		a, errA := strconv.ParseFloat(gt[i], 64)
		b, errB := strconv.ParseFloat(wt[i], 64)
		if errA != nil || errB != nil {
			return fmt.Sprintf("token %d: %q vs %q", i, gt[i], wt[i])
		}
		if diff := math.Abs(a - b); diff > relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) {
			return fmt.Sprintf("token %d: %v vs %v (diff %g)", i, a, b, diff)
		}
	}
	return ""
}

func TestGoldenBlendedJunctionVTK(t *testing.T) {
	s := goldenYWall(t)
	var buf bytes.Buffer
	if err := WriteSurfaceVTK(&buf, s, 2, "golden blended Y wall"); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "y_wall_blended.golden.vtk")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Byte identity is expected on the architecture that generated the
		// golden (amd64 CI); on others the compiler may fuse multiply-adds,
		// perturbing last bits of the %.17g coordinates. Fall back to a
		// token-wise comparison with a tight numeric tolerance so only real
		// drift fails.
		if msg := compareNumericTokens(string(got), string(want), 1e-9); msg != "" {
			t.Fatalf("blended junction VTK drifted from golden %s: %s", path, msg)
		}
		t.Logf("golden VTK differs only in floating-point last bits (FMA/architecture); %d vs %d bytes", len(got), len(want))
	}

	// The validator must accept the golden bytes and agree on the counts
	// the writer promised.
	npts, ncells, err := ValidateVTKFile(path)
	if err != nil {
		t.Fatalf("golden VTK fails validation: %v", err)
	}
	np := s.F.NumPatches()
	if npts != np*3*3 || ncells != np*2*2 {
		t.Fatalf("golden VTK counts: %d points %d cells, want %d and %d", npts, ncells, np*9, np*4)
	}
}
