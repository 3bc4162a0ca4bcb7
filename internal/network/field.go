package network

import (
	"math"

	"rbcflow/internal/patch"
)

// Field is the blended implicit wall of a network: each segment carries a
// signed tube distance (negative inside, flat-capped at terminal nodes so
// nothing pokes past the inlet/outlet disks), and the per-segment values are
// folded with a compactly-supported cubic smooth-min of width Kappa.
// The zero level set is the blended wall surface realized by BuildGeometry;
// away from junctions (further than Kappa in field value) it coincides
// exactly with the circular tubes.
//
// Eval is 1-Lipschitz: |F(x)| is a lower bound on the distance to the wall,
// so F(x) <= -m guarantees an open ball of radius m around x stays inside
// the fluid — the property cell seeding relies on.
type Field struct {
	segs  []segField
	kappa float64
}

// segField caches one segment's distance evaluation. Straight segments
// (no control points) use the exact point-segment distance; curved ones
// sample the Bezier centerline and refine the nearest station.
type segField struct {
	r        float64
	straight bool
	a, b     [3]float64 // endpoints
	u        [3]float64 // unit axis a->b (straight only)
	chord    float64    // |b-a| (straight only)
	cu       *Curve     // curved only
	// Terminal flat cuts: active when the corresponding node has degree 1,
	// with the outward axis of the cap plane.
	cutA, cutB bool
	outA, outB [3]float64
}

// DefaultBlendRadius is the smooth-min blend width in units of the smallest
// segment radius.
const DefaultBlendRadius = 1.0

// NewField builds the blended field of a network. blendRadius is in units
// of the smallest segment radius (0 = DefaultBlendRadius).
func NewField(n *Network, blendRadius float64) *Field {
	if blendRadius == 0 {
		blendRadius = DefaultBlendRadius
	}
	deg := n.Degree()
	f := &Field{segs: make([]segField, len(n.Segs))}
	rMin := math.Inf(1)
	for si, s := range n.Segs {
		rMin = math.Min(rMin, s.Radius)
		sf := segField{r: s.Radius}
		A, B := n.Nodes[s.A].Pos, n.Nodes[s.B].Pos
		sf.a, sf.b = A, B
		if len(s.Ctrl) == 0 {
			sf.straight = true
			d := [3]float64{B[0] - A[0], B[1] - A[1], B[2] - A[2]}
			sf.chord = patch.Norm(d)
			sf.u = patch.Normalize(d)
			if deg[s.A] == 1 {
				sf.cutA, sf.outA = true, [3]float64{-sf.u[0], -sf.u[1], -sf.u[2]}
			}
			if deg[s.B] == 1 {
				sf.cutB, sf.outB = true, sf.u
			}
		} else {
			sf.cu = n.Curve(si)
			if deg[s.A] == 1 {
				t := sf.cu.UnitTangent(0)
				sf.cutA, sf.outA = true, [3]float64{-t[0], -t[1], -t[2]}
			}
			if deg[s.B] == 1 {
				sf.cutB, sf.outB = true, sf.cu.UnitTangent(1)
			}
		}
		f.segs[si] = sf
	}
	f.kappa = blendRadius * rMin
	return f
}

// Kappa returns the absolute blend width.
func (f *Field) Kappa() float64 { return f.kappa }

// SegDistance returns segment si's signed tube distance at x (negative
// inside the tube, zero on its wall, flat-capped at terminal ends).
func (f *Field) SegDistance(si int, x [3]float64) float64 {
	s := &f.segs[si]
	var d float64
	if s.straight {
		w := [3]float64{x[0] - s.a[0], x[1] - s.a[1], x[2] - s.a[2]}
		t := patch.DotV(w, s.u)
		if t < 0 {
			t = 0
		} else if t > s.chord {
			t = s.chord
		}
		p := [3]float64{s.a[0] + t*s.u[0], s.a[1] + t*s.u[1], s.a[2] + t*s.u[2]}
		d = dist(x, p) - s.r
	} else {
		d = dist(x, nearestOnCurve(s.cu, x)) - s.r
	}
	if s.cutA {
		h := (x[0]-s.a[0])*s.outA[0] + (x[1]-s.a[1])*s.outA[1] + (x[2]-s.a[2])*s.outA[2]
		d = math.Max(d, h)
	}
	if s.cutB {
		h := (x[0]-s.b[0])*s.outB[0] + (x[1]-s.b[1])*s.outB[1] + (x[2]-s.b[2])*s.outB[2]
		d = math.Max(d, h)
	}
	return d
}

// Eval returns the blended signed distance bound at x: negative inside the
// fluid, positive outside, zero on the blended wall.
func (f *Field) Eval(x [3]float64) float64 {
	return f.evalSubset(x, nil)
}

// EvalSharp returns the unblended union distance min_s SegDistance. The
// blend only deepens the field (smin ≤ min), so EvalSharp ≥ Eval at every
// blend width: a conservative wall bound for callers that do not know the
// width the blend-width ladder settled on.
func (f *Field) EvalSharp(x [3]float64) float64 {
	m := math.Inf(1)
	for si := range f.segs {
		m = math.Min(m, f.SegDistance(si, x))
	}
	return m
}

// evalSubset folds the per-segment distances in ascending order with the
// smooth-min. It is called inside ray-cast bisection loops for every hull
// quadrature sample, so it sorts a small stack buffer by insertion instead
// of allocating; overflow beyond the buffer spills to the heap.
func (f *Field) evalSubset(x [3]float64, segs []int) float64 {
	var buf [16]float64
	ds := buf[:0]
	insert := func(d float64) {
		i := len(ds)
		ds = append(ds, d)
		for i > 0 && ds[i-1] > d {
			ds[i] = ds[i-1]
			i--
		}
		ds[i] = d
	}
	if segs == nil {
		for si := range f.segs {
			insert(f.SegDistance(si, x))
		}
	} else {
		for _, si := range segs {
			insert(f.SegDistance(si, x))
		}
	}
	s := ds[0]
	for _, d := range ds[1:] {
		if d-s >= f.kappa {
			break // sorted: every later value is at least this far too
		}
		s = smin2(s, d, f.kappa)
	}
	return s
}

// OtherWithin reports whether any segment other than si comes within
// distance d of x: the clearance test that places collars where the blend
// is provably inactive. The per-azimuth collar search calls it in its
// innermost loop, where bailing on the first too-close tube beats folding
// the full minimum.
func (f *Field) OtherWithin(x [3]float64, si int, d float64) bool {
	for sj := range f.segs {
		if sj == si {
			continue
		}
		if f.SegDistance(sj, x) < d {
			return true
		}
	}
	return false
}

// smin2 is the compactly supported cubic smooth minimum: equal to
// min(a, b) when |a-b| >= k, C2 and at most k/6 below the minimum inside
// the blend band (the C2 regularity keeps the blended wall spectrally
// approximable by the polynomial hull patches). It is 1-Lipschitz in (a, b)
// jointly, preserving the distance-bound property of its arguments.
func smin2(a, b, k float64) float64 {
	h := (k - math.Abs(a-b)) / k
	if h <= 0 {
		return math.Min(a, b)
	}
	return math.Min(a, b) - h*h*h*k/6
}

// nearestOnCurve returns the closest point of a Bezier centerline by coarse
// sampling plus parabolic refinement of the nearest station.
func nearestOnCurve(cu *Curve, x [3]float64) [3]float64 {
	const m = 64
	best, bi := math.Inf(1), 0
	for i := 0; i <= m; i++ {
		t := float64(i) / m
		if d := dist2v(x, cu.Point(t)); d < best {
			best, bi = d, i
		}
	}
	lo := math.Max(0, float64(bi-1)/m)
	hi := math.Min(1, float64(bi+1)/m)
	// Golden-section refinement on [lo, hi].
	const gr = 0.6180339887498949
	a, b := lo, hi
	c := b - gr*(b-a)
	d := a + gr*(b-a)
	fc, fd := dist2v(x, cu.Point(c)), dist2v(x, cu.Point(d))
	for it := 0; it < 40; it++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - gr*(b-a)
			fc = dist2v(x, cu.Point(c))
		} else {
			a, c, fc = c, d, fd
			d = a + gr*(b-a)
			fd = dist2v(x, cu.Point(d))
		}
	}
	return cu.Point((a + b) / 2)
}

func dist(a, b [3]float64) float64 { return math.Sqrt(dist2v(a, b)) }

func dist2v(a, b [3]float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return dx*dx + dy*dy + dz*dz
}

// Raycast marches from origin p along unit direction w until the field
// crosses zero, then bisects the bracket. Returns the crossing point and
// whether a crossing was found within maxRho.
func (f *Field) Raycast(p, w [3]float64, segs []int, step, maxRho float64) ([3]float64, bool) {
	at := func(rho float64) [3]float64 {
		return [3]float64{p[0] + rho*w[0], p[1] + rho*w[1], p[2] + rho*w[2]}
	}
	if f.evalSubset(p, segs) >= 0 {
		return p, false
	}
	lo, hi := 0.0, step
	for {
		if hi > maxRho {
			return at(hi), false
		}
		if f.evalSubset(at(hi), segs) >= 0 {
			break
		}
		lo = hi
		hi += step
	}
	for it := 0; it < 80 && hi-lo > 1e-14*(1+hi); it++ {
		mid := (lo + hi) / 2
		if f.evalSubset(at(mid), segs) >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return at((lo + hi) / 2), true
}
