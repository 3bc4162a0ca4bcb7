package forest

import "rbcflow/internal/par"

// ClosestCandidates exposes the collective candidate stage of ClosestPoints
// to the external test package, whose exhaustive reference searches the same
// lists.
func (f *Forest) ClosestCandidates(c *par.Comm, pts [][3]float64, dEps float64) [][]uint64 {
	return f.closestCandidates(c, pts, dEps)
}
