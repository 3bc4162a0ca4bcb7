package collision

import (
	"rbcflow/internal/par"
	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// ResolveParams configures the NCP loop.
type ResolveParams struct {
	MinSep   float64
	Mobility float64 // Δt/drag scaling from contact force to displacement
	MaxNCP   int     // LCP linearizations (the paper uses about seven)
	// Tel, when non-nil, counts collision.contacts and
	// collision.ncp.iterations and times each call under the
	// collision.resolve span. Nil costs nothing.
	Tel *telemetry.Registry
	// Health, when non-nil, receives the resolve outcome (pair count, NCP
	// iterations, contacts still violating at the cap). Must be the SAME
	// monitor on every rank: when set, resolves that hit the iteration cap
	// run one extra collective contact count.
	Health *trace.Health
}

// Resolve runs the NCP loop of paper §4 on the rank-local deformable meshes:
// detect contacts against the candidate pairs, assemble the sparse B matrix
// (contacts couple through shared vertices under the local mobility
// approximation), solve the LCP by minimum-map Newton, displace the
// candidate positions, and repeat until V ≥ 0 or MaxNCP iterations.
//
// byID must resolve every mesh ID in pairs (rank-local cells, gathered
// remote cells, and the replicated rigid vessel meshes). Only vertices of
// rank-LOCAL deformable meshes (those in localIDs) are displaced.
// Returns the total number of contacts seen (allreduced) and the number of
// NCP iterations executed.
func Resolve(c *par.Comm, pairs [][2]int, byID map[int]*Mesh, localIDs map[int]bool, prm ResolveParams) (contacts, iters int) {
	if prm.MaxNCP == 0 {
		prm.MaxNCP = 7
	}
	defer telemetry.Start(prm.Tel, "collision.resolve")()
	defer func() {
		if prm.Tel != nil {
			prm.Tel.Counter("collision.contacts").Add(int64(contacts))
			prm.Tel.Counter("collision.ncp.iterations").Add(int64(iters))
		}
	}()
	total := 0
	for it := 0; it < prm.MaxNCP; it++ {
		iters = it + 1
		cons := FindContacts(pairs, byID, prm.MinSep)
		// Keep only contacts whose deformable mesh is rank-local.
		var local []Contact
		for _, con := range cons {
			if localIDs[con.MeshA] {
				local = append(local, con)
			}
		}
		counts := []int{len(local)}
		c.AllreduceSumInt(counts)
		if counts[0] == 0 {
			break
		}
		total += counts[0]
		if len(local) > 0 {
			m := len(local)
			// B_kj = mobility · (n_k·n_j) when contacts share (mesh, vertex).
			groups := map[[2]int][]int{}
			for k, con := range local {
				key := [2]int{con.MeshA, con.Vertex}
				groups[key] = append(groups[key], k)
			}
			apply := func(dst, lam []float64) {
				for i := range dst {
					dst[i] = 0
				}
				for _, g := range groups {
					for _, k := range g {
						nk := local[k].Normal
						var s float64
						for _, j := range g {
							nj := local[j].Normal
							s += (nk[0]*nj[0] + nk[1]*nj[1] + nk[2]*nj[2]) * lam[j]
						}
						dst[k] += prm.Mobility * s
					}
				}
			}
			q := make([]float64, m)
			for k, con := range local {
				q[k] = -con.Gap // V = −gap violation; constraint V + BΔλ ≥ 0
			}
			lam := SolveLCP(apply, q, 20)
			// Displace candidate positions: Δx = mobility Σ λ_k n_k.
			for k, con := range local {
				if lam[k] <= 0 {
					continue
				}
				mesh := byID[con.MeshA]
				d := scale(con.Normal, prm.Mobility*lam[k])
				mesh.VNext[con.Vertex] = add(mesh.VNext[con.Vertex], d)
			}
		}
		// Ranks without local contacts still iterate to keep collectives
		// aligned.
	}
	if prm.Health != nil {
		// Count the contacts still violating after the loop. The recount is
		// collective (every rank reaches here with the same Health config),
		// and only runs when the loop consumed every iteration with
		// contacts still flowing — the converged path exits via the
		// zero-count break above.
		unresolved := 0
		if iters == prm.MaxNCP && total > 0 {
			cons := FindContacts(pairs, byID, prm.MinSep)
			n := 0
			for _, con := range cons {
				if localIDs[con.MeshA] {
					n++
				}
			}
			counts := []int{n}
			c.AllreduceSumInt(counts)
			unresolved = counts[0]
		}
		prm.Health.ObserveContacts(total, iters, unresolved)
	}
	return total, iters
}
