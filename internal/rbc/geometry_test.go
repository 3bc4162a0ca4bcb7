package rbc

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// perturbedBiconcave is shearedBiconcave's rotated cell with a smooth bump
// on each coordinate, so that no symmetry of the rest shape leaves a
// spherical-harmonic coefficient at zero.
func perturbedBiconcave(p int) *Cell {
	c, _ := shearedBiconcave(p)
	g := c.Grid
	for i := 0; i < g.Nlat; i++ {
		for j := 0; j < g.Nlon; j++ {
			k := g.Index(i, j)
			bump := float64(0.04*math.Sin(2*g.Theta[i])) * math.Cos(g.Phi[j]+0.3)
			for d := 0; d < 3; d++ {
				c.X[d][k] += float64(bump * float64(d+1))
			}
		}
	}
	return c
}

// geometryDigests returns the digests of perturbedBiconcave(p)'s geometry,
// field by field, of SurfaceLaplacian(geo, H), of Area, Volume and
// Centroid, and of the cell's positions after three shear steps.
func geometryDigests(p int) map[string]string {
	c := perturbedBiconcave(p)
	geo := c.ComputeGeometry()
	out := map[string]string{}
	put := func(name string, fields ...[]float64) {
		d := newDigest()
		for _, f := range fields {
			d.add(f...)
		}
		out[name] = d.String()
	}
	put("Normal", geo.Normal[:]...)
	put("W", geo.W)
	put("H", geo.H)
	put("K", geo.K)
	put("E", geo.E)
	put("F", geo.F)
	put("G", geo.G)
	put("Xt", geo.Xt[:]...)
	put("Xp", geo.Xp[:]...)
	put("Laplacian", c.SurfaceLaplacian(geo, geo.H))
	put("Area", []float64{c.Area()})
	put("Volume", []float64{c.Volume()})
	ctr := c.Centroid()
	put("Centroid", ctr[:])
	sq := NewSingularQuad(p)
	for i := 0; i < 3; i++ {
		shearStep(c, sq)
	}
	put("Steps", c.X[:]...)
	return out
}

// TestGeometryDigestsPinned pins the bits of the spectral geometry on
// perturbedBiconcave at orders 3, 4, 6 and 8 (a direct DFT at 3 and 6, the
// radix-2 transform at 4 and 8): every Geometry field, the surface
// Laplacian of H, Area, Volume, Centroid, and three shear steps on both
// self-operator kernels. The digests were recorded with the transforms
// that allocated per call and recomputed their trigonometry, before the
// grid held its tables. They are amd64 digests: elsewhere the compiler may
// fuse the multiply-adds of math's Sin and Cos, which build the grid.
func TestGeometryDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	want := map[int]map[string]string{
		3: {
			"Area":      "fcd513626e0c41edcb582b32d7121e6480c2b153731ee72ffdcaea45fc1f56c9",
			"Centroid":  "1555d9ed1ae5d4ccbf7ba3971559a06939be7a6ed4ab12c0a0c4610a9d42046b",
			"E":         "533fd564b1636a1a6391c89bb9ccf5732907d35694364476cb3bfb01b0c32c45",
			"F":         "546d54b3a34b7e1cd1b4b39d286143c831ffe645bf0988999f7f3e277e90b8fa",
			"G":         "6e8b438ad8e95653eab6bcfab3e47286946eb211cc2672648572617b6a95d8f1",
			"H":         "01cc419914d42c266bf73b1912c62f652f21c5d0e55891f2e9b4b11d44e049a4",
			"K":         "d858b4d4b64c662de8f966b5c3af989fa0b1c0e10a08f69edce7746d8d86117c",
			"Laplacian": "a3885737d3925b2a3c2f989b19ad439fa7047c461eef197e4ee04fa7509b7505",
			"Normal":    "4d192297b1e4c152731dc4c4cb6b4c6148a768bbdd1b89e362d358d57d63fa79",
			"Steps":     "bc0c56d185a5348516be35b2c7e907d90a83748a25561fc674710e2e940b8eff",
			"Volume":    "06f68c259533a6577e6eac88999acbd59410821c48f3bebb23cea172038ad48e",
			"W":         "a68a202145874aab261f2c7304ec21149a48bb5ca7d22f6566cfc3c3f8823085",
			"Xp":        "9327dc1ff0f9b25d955c6009d3b795048eb0fedcb4f92b068d5a9098b93f17e0",
			"Xt":        "5a1d8648e1d4f43f20b7b0289615eeb836b88877d9bdcc3b78aef114c8db6196",
		},
		4: {
			"Area":      "6962756c75a5190b8ef7a3b56a707695d72724d839dfa077e61a1e96c5d6f4f9",
			"Centroid":  "03a68172cc20bd941ad6c3087b1f64b180c8d7fb1467fa3c703ae60ce00648b9",
			"E":         "3fbfb8f62bc51c3dfc0e235d3e810bc8e5d3c1ba2ede76c066aa161d148b2b7c",
			"F":         "69e501411605195f42c55ce225b404e1943c7763c57e1155b59550035e82c060",
			"G":         "d1e7b26ea746d94ac4cb493d8579804f513cb44985d623a2f15896dd73dc9df0",
			"H":         "18e41f64ee1529458809f0646f2357125e94d04ddd9351dddd94542a9732f1e0",
			"K":         "a91fe436f705233be04194d00bc6e668ff31b22578ca2efce253fbc24220c556",
			"Laplacian": "d89446ab3921f49d2770eba1243348737257179933643191528045b1c68c796c",
			"Normal":    "93c28e3f6dfcc66371ba7a022445bd4c5f9a7f8923541f6bcb4133d0ca0fa023",
			"Steps":     "6a5851ee0d0b7b576646448532b883ecdbc6a684e447f1d0d7cc2a1856355aac",
			"Volume":    "06f68c259533a6577e6eac88999acbd59410821c48f3bebb23cea172038ad48e",
			"W":         "49fc53cf86878bad392e0e023d944b19ecc7a3f64461b9dea783966070b750b7",
			"Xp":        "4f7c155638c6abe1cc0e1a6c4a0aae0f77452050200f806014517d576bff13d0",
			"Xt":        "24b2b8e4c407d59e143611be57aec20db182262a0583f29a042145303d8031cf",
		},
		6: {
			"Area":      "cd97ff3376e71a1aadc445b2ff17e283c32de594011170644bd3615e1678393a",
			"Centroid":  "1b80393818cbd3daa557de7e114f71fe431668205243b04d5e5604cd48e7f7ea",
			"E":         "2666a62260bf8957ee312ee4bebcbbafce053207cafda4a2c6523016187be43b",
			"F":         "2f155cfe8870ce76713618e19e8602244a9bc32ce37c06a195f44370d9b53ac0",
			"G":         "5b29fe35c3163cf80bec16f746fe6b9c58c22fcbfad9099d7d0e284499b66530",
			"H":         "0e7f5df8002211ece84587ef58df435f89e69a149e9b456a3d49d31c713c1204",
			"K":         "e3c9710ecb7c7642486df0ea4678d93a11d542fd53ae9852d47c84f0029d7d60",
			"Laplacian": "b6ea0dfdb6ead02fbd2333ef5a1cbff8f16db272d8de4dbd6c73fbd4ae2492f4",
			"Normal":    "56e0a495ab026536387afd3421782c0a78f8c9b20d33da00f4a2e53f800e3f84",
			"Steps":     "b6d7e8b2b63d9ec8de7edf2617fa93f952d351df44a6bcfcd86d7b2d83c34e0d",
			"Volume":    "06f68c259533a6577e6eac88999acbd59410821c48f3bebb23cea172038ad48e",
			"W":         "7cb9c330983f348f88f554927542f2630cd9fb15476313af3e80d0c588cac1a8",
			"Xp":        "3e4ef6507258099be5b73e8780308d8e0fb7efa0fbe1a381140c2f843e4eba8c",
			"Xt":        "9b37816173d820c61e2a160c3c03ee47175205d6b744ef3bb32a644dfb4e8836",
		},
		8: {
			"Area":      "d16645e49cecdcc681c5c728ef3caaa294e102dfcd675007dfe574e0405cc49f",
			"Centroid":  "784a484cdf4915f2d688f0d1a1ed71c627987973a0eecdb51981242e8ceffc27",
			"E":         "5fb15b68c76f48340ae80b48ff3132fda0bec1e17c89dc0c2ca531fb50325cdd",
			"F":         "db4f5559dd62ff4312d2c023e5dc53da4c8e12fb4a83e899a40d02f449a9d855",
			"G":         "29f1f5a2e53f213bb66d8e3d137d8263a1681b3bc2389d84096873beb3162cd3",
			"H":         "93f7578aa9f00a06d6f77415f951adcd1f0a73631e0ca7436690985886333096",
			"K":         "52f0304115b6c12f918638ca7e5e16263168307db3be3016b30f50df3695fd29",
			"Laplacian": "660f605d2a6515f778293f9c5a22dd366b6f17b18e4343e30914ee57c4ffc775",
			"Normal":    "da24ca608c0bf494317182466c4e87528044ffa2225de0a729dc59e4261b1d1a",
			"Steps":     "342891346ece725a737b97bb52f4f8a28742241d80a07747dbfd6adb382b4c80",
			"Volume":    "8ea9511ae4839ad84911567b4ab6afc4c2cb79bf46e6aca084ebbddfb713a0af",
			"W":         "acab6ad9f8ffe9819501e6a48a7ad207956b1d717fe6c0a09d36f2884649658e",
			"Xp":        "a0e613b9938d4bb0d1344f59437c643fa69688c59d1c4d19291dec8d27cce144",
			"Xt":        "49e11bc234cb1eb57fa3dbec5c1d4c19c1a249be1b3c39cbebf79c84df16dfd1",
		},
	}
	for _, path := range kernelPaths() {
		onPath(t, path)
		for _, p := range []int{3, 4, 6, 8} {
			got := geometryDigests(p)
			for name, g := range got {
				if w := want[p][name]; g != w {
					t.Errorf("%s p=%d: %s digest %s, want %s", path, p, name, g, w)
				}
			}
		}
	}
}

// The workspace forms of the geometry, the surface Laplacian and the
// linearized bending allocate nothing.
func TestWorkspaceFormsDoNotAllocate(t *testing.T) {
	for _, p := range []int{3, 4} {
		c := perturbedBiconcave(p)
		n := c.Grid.NumPoints()
		ws, geo := NewWorkspace(c.Grid), NewGeometry(n)
		lap := make([]float64, n)
		var f, dX [3][]float64
		for d := range f {
			f[d], dX[d] = make([]float64, n), c.X[(d+1)%3]
		}
		allocs := testing.AllocsPerRun(10, func() {
			c.ComputeGeometryInto(geo, ws)
			c.SurfaceLaplacianInto(lap, geo, geo.H, ws)
			c.LinearizedBendingApply(f, 0.01, geo, dX, ws)
		})
		if allocs != 0 {
			t.Fatalf("p=%d: %v allocations per geometry, Laplacian and bending apply, want 0", p, allocs)
		}
	}
}

// geoSink and lapSink keep the benchmarked results live.
var (
	geoSink *Geometry
	lapSink []float64
)

// BenchmarkComputeGeometry times the geometry of one cell at orders 4 and
// 8, allocating and in a workspace; -cpu 1 gives the single-core figure.
func BenchmarkComputeGeometry(b *testing.B) {
	for _, p := range []int{4, 8} {
		c := perturbedBiconcave(p)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				geoSink = c.ComputeGeometry()
			}
		})
		b.Run(fmt.Sprintf("workspace/p=%d", p), func(b *testing.B) {
			ws, geo := NewWorkspace(c.Grid), NewGeometry(c.Grid.NumPoints())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.ComputeGeometryInto(geo, ws)
			}
		})
	}
}

// BenchmarkSurfaceLaplacian times the Laplacian of H at orders 4 and 8.
func BenchmarkSurfaceLaplacian(b *testing.B) {
	for _, p := range []int{4, 8} {
		c := perturbedBiconcave(p)
		geo := c.ComputeGeometry()
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lapSink = c.SurfaceLaplacian(geo, geo.H)
			}
		})
	}
}
