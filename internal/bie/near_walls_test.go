package bie_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rbcflow/internal/bie"
	"rbcflow/internal/forest"
	"rbcflow/internal/par"
	"rbcflow/internal/scenario"
)

// registeredWalls are the walls of the scenario registry at default
// parameters, by scenario name. network-json has no default wall: it sweeps
// the tubes of the network file it is given, as network-y and network-tree
// do theirs.
func registeredWalls(t *testing.T) map[string]*bie.Surface {
	t.Helper()
	walls := map[string]*bie.Surface{}
	for _, sc := range scenario.All() {
		if sc.Name == "network-json" {
			continue
		}
		var p scenario.Params
		p.Defaults()
		g, err := sc.BuildGeometry(p)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if g != nil && g.Surf != nil {
			walls[sc.Name] = g.Surf
		}
	}
	return walls
}

// TestNearKernelsOnRegisteredWalls: on every registered wall the quadrature
// kernels — velocity, block integration, rectangle samples and frame — are
// the portable loops to the bit on rectangles of every patch, the deep scratch
// rectangle and targets on quadrature nodes included; outside -short, the
// near-pass kernel and the portable loop also sum the wall's full plan to
// the per-node block loop's bits for a random density, and on amd64 the
// plans of the walls with a pinned digest are the pinned bytes.
func TestNearKernelsOnRegisteredWalls(t *testing.T) {
	for name, s := range registeredWalls(t) {
		t.Run(name, func(t *testing.T) {
			bie.CheckIntegrateVel(t, s, 53)
			bie.CheckIntegrateBlock(t, s, 57)
			bie.CheckRectFill(t, s, 58)
			if testing.Short() {
				return
			}
			plan := bie.BuildQuadPlan(s, 0)
			if want, ok := pinnedPlanSHA256[name]; ok && runtime.GOARCH == "amd64" {
				if got, err := bie.PlanFileSHA256(plan); err != nil || got != want {
					t.Errorf("%s plan file SHA-256 %s (err %v), want %s", name, got, err, want)
				}
			}
			bie.CheckNearPass(t, s, plan, 54)
		})
	}
}

// TestEvalVelocityKernelsOnCellPoints: the whole EvalVelocity call at the
// cell points of the torus and network-y scenarios, with a random density,
// is the same bits on this machine's kernels and on the portable loops.
func TestEvalVelocityKernelsOnCellPoints(t *testing.T) {
	for _, name := range []string{"torus", "network-y"} {
		t.Run(name, func(t *testing.T) {
			var p scenario.Params
			p.Defaults()
			p.MaxCells = 8
			b, err := scenario.Build(name, p)
			if err != nil {
				t.Fatal(err)
			}
			s := b.Surf
			var targets [][3]float64
			for _, cell := range b.Cells {
				targets = append(targets, cell.Points()...)
			}
			dEps := 0.0
			for pid := range s.F.Patches {
				dEps = math.Max(dEps, s.P.NearFactor*s.LMax[pid])
			}
			var cls []forest.Closest
			par.Run(1, par.SKX(), func(c *par.Comm) { cls = s.F.ClosestPoints(c, targets, dEps) })
			near := 0
			for _, cl := range cls {
				if cl.PatchID >= 0 && cl.Dist <= s.P.NearFactor*s.LMax[cl.PatchID] {
					near++
				}
			}
			if near == 0 {
				t.Fatalf("none of %d cell points is near the wall", len(targets))
			}
			rng := rand.New(rand.NewSource(55))
			phi := make([]float64, s.NumUnknowns())
			for i := range phi {
				phi[i] = rng.NormFloat64()
			}
			kernel, portable := bie.EvalVelocityOnBothKernels(s, phi, targets, cls)
			for i := range kernel {
				if math.Float64bits(kernel[i]) != math.Float64bits(portable[i]) {
					t.Fatalf("%d near of %d targets: entry %d: kernel %x, portable loop %x", near, len(targets), i, kernel[i], portable[i])
				}
			}
			t.Logf("%d cell points, %d near the wall", len(targets), near)
		})
	}
}

// capsulePlanSHA256 is the SHA-256 of the capsule wall's plan file as the
// per-node plan wrote it, before the in-memory groups.
const capsulePlanSHA256 = "b9764668e83b68c47e32c922f157222a2e189c53d6971f425449d1f35f3b0334"

// pinnedPlanSHA256 are the SHA-256 digests of the plan files of the default
// torus and network-y walls — the walls the torus_dense, ynet_wall and
// serve_mix benchmark workloads build — as the plan build's scalar Go loops
// wrote them, before its AVX2 block, frame and sample kernels.
var pinnedPlanSHA256 = map[string]string{
	"torus":     "3944f89f639d708e954a6cdb465bdc2860e62945da0c80f992a8221fee2f3ed6",
	"network-y": "28281fc0c2b548a73a7495fc57a5968528bbdce2c90604abab3235630bf96a29",
}

// TestPlanFileBytesPinned: the plan file of the capsule wall is the same
// bytes as before the in-memory groups, and a loaded plan saves back to the
// very same bytes — the de- and re-interleave and the rectangle planes move
// nothing. The bytes are amd64's: elsewhere a compiler may fuse the build's
// multiply-adds.
func TestPlanFileBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned bytes are amd64's")
	}
	var p scenario.Params
	p.Defaults()
	g, err := scenario.MustGet("capsule").BuildGeometry(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved, again := filepath.Join(dir, "built.qplan"), filepath.Join(dir, "again.qplan")
	if err := bie.SavePlan(saved, bie.BuildQuadPlan(g.Surf, 2)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != capsulePlanSHA256 {
		t.Errorf("capsule plan file SHA-256 %x, want %s", sum, capsulePlanSHA256)
	}
	loaded, err := bie.LoadPlan(saved)
	if err != nil {
		t.Fatal(err)
	}
	if err := bie.SavePlan(again, loaded); err != nil {
		t.Fatal(err)
	}
	if b2, err := os.ReadFile(again); err != nil || string(b2) != string(b) {
		t.Errorf("LoadPlan → SavePlan changed the file (%d → %d bytes, err %v)", len(b), len(b2), err)
	}
}

// BenchmarkNearPass times one near pass over the full plan of the torus and
// network-y walls at the -cpu count, per kernel, in wall-clock ms per pass,
// and reports the plan's padding (in-memory planes over node-block planes).
func BenchmarkNearPass(b *testing.B) {
	for _, name := range []string{"torus", "network-y"} {
		var p scenario.Params
		p.Defaults()
		g, err := scenario.MustGet(name).BuildGeometry(p)
		if err != nil {
			b.Fatal(err)
		}
		s := g.Surf
		plan := bie.BuildQuadPlan(s, 0)
		rng := rand.New(rand.NewSource(56))
		phi := make([]float64, s.NumUnknowns())
		for i := range phi {
			phi[i] = rng.NormFloat64()
		}
		u := make([]float64, len(phi))
		for kernel, pass := range bie.NearPassKernels(plan, u, phi) {
			b.Run(name+"/kernel="+kernel, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/pass")
				b.ReportMetric(bie.PlanPadding(plan), "padding")
			})
		}
	}
}
