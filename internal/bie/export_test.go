package bie

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rbcflow/internal/forest"
	"rbcflow/internal/par"
)

// CheckRigidWallLayout exposes checkRigidWallLayout to the external test
// package, which builds the registered walls.
func CheckRigidWallLayout(t *testing.T, s *Surface) { checkRigidWallLayout(t, s) }

// CheckIntegrateVel exposes checkIntegrateVel to the external test package.
func CheckIntegrateVel(t *testing.T, s *Surface, seed int64) { checkIntegrateVel(t, s, seed) }

// CheckIntegrateBlock exposes checkIntegrateBlock to the external test
// package, at the surface's own coarse order.
func CheckIntegrateBlock(t *testing.T, s *Surface, seed int64) {
	checkIntegrateBlock(t, s, seed, s.P.QuadNodes)
}

// CheckRectFill exposes checkRectFill to the external test package.
func CheckRectFill(t *testing.T, s *Surface, seed int64) { checkRectFill(t, s, seed, s.P.QuadNodes) }

// PlanFileSHA256 is the SHA-256 of the bytes SavePlan writes for p.
func PlanFileSHA256(p *QuadPlan) (string, error) {
	h := sha256.New()
	if err := writePlan(h, p); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CheckNearPass exposes checkNearPass to the external test package.
func CheckNearPass(t *testing.T, s *Surface, p *QuadPlan, seed int64) { checkNearPass(t, s, p, seed) }

// EvalVelocityOnBothKernels runs EvalVelocity on one rank, with the direct
// far field and no plan (the velocity path reads none), once on this
// machine's kernels and once on the portable loops.
func EvalVelocityOnBothKernels(s *Surface, phi []float64, targets [][3]float64, cls []forest.Closest) (kernel, portable []float64) {
	sv := &Solver{S: s, size: 1, patchHi: s.F.NumPatches(), nodeHi: s.NumNodes(), far: DirectFarField()}
	sv.acPool.New = func() any { return newAdaptiveCtx(s.P.QuadNodes) }
	par.Run(1, par.SKX(), func(c *par.Comm) {
		kernel = sv.EvalVelocity(c, phi, targets, cls)
		defer func(v bool) { useAVX2 = v }(useAVX2)
		useAVX2 = false
		portable = sv.EvalVelocity(c, phi, targets, cls)
	})
	return kernel, portable
}

// NearPassKernels are the plan's near pass over all its nodes on each
// kernel of this machine, by name, adding into u.
func NearPassKernels(p *QuadPlan, u, phi []float64) map[string]func() {
	out := map[string]func(){}
	for _, k := range nearKernels() {
		block := k.block
		out[k.name] = func() { p.addCorrections(u, phi, 0, p.NumNodes, block) }
	}
	return out
}

// PlanPadding is the plan's in-memory planes over the planes of its node
// blocks: the share of zero lanes in its groups.
func PlanPadding(p *QuadPlan) float64 {
	lanes := 0
	for _, m := range p.groups.lanes {
		for ; m != 0; m &= m - 1 {
			lanes++
		}
	}
	return float64(corrLanes*len(p.groups.lanes)) / float64(lanes)
}
