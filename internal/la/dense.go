package la

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zero Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes dst = M*x. dst must have length Rows, x length Cols.
func (m *Dense) MulVec(dst, x []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Mul computes C = A*B and returns C. Panics on shape mismatch.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("la: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
}

// Factor computes the LU factorization of the square matrix m with partial
// pivoting. It returns an error if the matrix is numerically singular.
func Factor(m *Dense) (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("la: Factor requires square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p, maxv := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxv {
				p, maxv = i, a
			}
		}
		if maxv == 0 {
			return nil, fmt.Errorf("la: singular matrix at column %d", k)
		}
		if p != k {
			rk := f.lu[k*n : k*n+n]
			rp := f.lu[p*n : p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			ri := f.lu[i*n : i*n+n]
			rk := f.lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b using the factorization, writing the solution into x.
// b and x may alias.
func (f *LU) Solve(x, b []float64) {
	n := f.n
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+n]
		s := tmp[i]
		for j := 0; j < i; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n : i*n+n]
		s := tmp[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s / row[i]
	}
	copy(x, tmp)
}

// SolveDense solves the square system m*x = b directly (convenience wrapper).
func SolveDense(m *Dense, b []float64) ([]float64, error) {
	f, err := Factor(m)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.Solve(x, b)
	return x, nil
}
