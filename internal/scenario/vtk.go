package scenario

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rbcflow/internal/bie"
	"rbcflow/internal/collision"
	"rbcflow/internal/rbc"
)

// The output layer writes legacy-VTK (ASCII DATASET POLYDATA) files: cell
// membranes as the watertight pole-capped triangulation of the collision
// proxy mesh, vessel walls as per-patch quad grids. Legacy VTK is the
// lowest common denominator every ParaView/VisIt build loads.

// WriteCellsVTK writes all cell membranes as one polydata with a per-face
// cell_id scalar.
func WriteCellsVTK(w io.Writer, cells []*rbc.Cell, title string) error {
	bw := bufio.NewWriter(w)
	var npts, ntri int
	meshes := make([]*collision.Mesh, len(cells))
	for i, c := range cells {
		meshes[i] = collision.MeshFromCell(i, c)
		npts += len(meshes[i].V)
		ntri += len(meshes[i].Tri)
	}
	writeVTKHeader(bw, title)
	fmt.Fprintf(bw, "POINTS %d double\n", npts)
	for _, m := range meshes {
		for _, v := range m.V {
			fmt.Fprintf(bw, "%.17g %.17g %.17g\n", v[0], v[1], v[2])
		}
	}
	fmt.Fprintf(bw, "POLYGONS %d %d\n", ntri, 4*ntri)
	base := 0
	for _, m := range meshes {
		for _, t := range m.Tri {
			fmt.Fprintf(bw, "3 %d %d %d\n", base+t[0], base+t[1], base+t[2])
		}
		base += len(m.V)
	}
	fmt.Fprintf(bw, "CELL_DATA %d\nSCALARS cell_id int 1\nLOOKUP_TABLE default\n", ntri)
	for i, m := range meshes {
		for range m.Tri {
			fmt.Fprintf(bw, "%d\n", i)
		}
	}
	return bw.Flush()
}

// wallVTKRes is the per-patch sampling resolution of a run's wall.vtk.
const wallVTKRes = 6

// WriteSurfaceVTK writes a vessel wall as per-patch quad grids with a
// per-face patch_id scalar. res ≥ 1 is the per-patch sampling resolution
// (res×res quads).
func WriteSurfaceVTK(w io.Writer, s *bie.Surface, res int, title string) error {
	bw := bufio.NewWriter(w)
	np := s.F.NumPatches()
	n1 := res + 1
	writeVTKHeader(bw, title)
	fmt.Fprintf(bw, "POINTS %d double\n", np*n1*n1)
	for _, pp := range s.F.Patches {
		for i := 0; i < n1; i++ {
			u := -1 + 2*float64(i)/float64(res)
			for j := 0; j < n1; j++ {
				v := -1 + 2*float64(j)/float64(res)
				x := pp.Eval(u, v)
				fmt.Fprintf(bw, "%.17g %.17g %.17g\n", x[0], x[1], x[2])
			}
		}
	}
	nquad := np * res * res
	fmt.Fprintf(bw, "POLYGONS %d %d\n", nquad, 5*nquad)
	for pid := 0; pid < np; pid++ {
		base := pid * n1 * n1
		for i := 0; i < res; i++ {
			for j := 0; j < res; j++ {
				a := base + i*n1 + j
				fmt.Fprintf(bw, "4 %d %d %d %d\n", a, a+1, a+n1+1, a+n1)
			}
		}
	}
	fmt.Fprintf(bw, "CELL_DATA %d\nSCALARS patch_id int 1\nLOOKUP_TABLE default\n", nquad)
	for pid := 0; pid < np; pid++ {
		for k := 0; k < res*res; k++ {
			fmt.Fprintf(bw, "%d\n", pid)
		}
	}
	return bw.Flush()
}

func writeVTKHeader(w io.Writer, title string) {
	if title == "" {
		title = "rbcflow"
	}
	fmt.Fprintf(w, "# vtk DataFile Version 3.0\n%s\nASCII\nDATASET POLYDATA\n", title)
}

func writeFileVTK(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateVTK checks a legacy-VTK polydata stream: header magic, declared
// vs actual point count, connectivity size bookkeeping, and index bounds.
// Returns the point and polygon counts. The campaign runner validates every
// file it writes and records the result in the manifest.
func ValidateVTK(r io.Reader) (npts, ncells int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	readLine := func() (string, error) {
		if !sc.Scan() {
			if sc.Err() != nil {
				return "", sc.Err()
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	l1, err := readLine()
	if err != nil {
		return 0, 0, err
	}
	if !strings.HasPrefix(l1, "# vtk DataFile Version") {
		return 0, 0, fmt.Errorf("vtk: bad magic %q", l1)
	}
	if _, err = readLine(); err != nil { // title
		return 0, 0, err
	}
	l3, err := readLine()
	if err != nil {
		return 0, 0, err
	}
	if strings.TrimSpace(l3) != "ASCII" {
		return 0, 0, fmt.Errorf("vtk: want ASCII, got %q", l3)
	}
	l4, err := readLine()
	if err != nil {
		return 0, 0, err
	}
	if strings.TrimSpace(l4) != "DATASET POLYDATA" {
		return 0, 0, fmt.Errorf("vtk: want DATASET POLYDATA, got %q", l4)
	}

	// Token stream for the numeric sections.
	var tokens []string
	next := func() (string, error) {
		for len(tokens) == 0 {
			line, err := readLine()
			if err != nil {
				return "", err
			}
			tokens = strings.Fields(line)
		}
		t := tokens[0]
		tokens = tokens[1:]
		return t, nil
	}
	expect := func(word string) error {
		t, err := next()
		if err != nil {
			return err
		}
		if t != word {
			return fmt.Errorf("vtk: want %q, got %q", word, t)
		}
		return nil
	}
	nextInt := func() (int, error) {
		t, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(t)
	}

	if err := expect("POINTS"); err != nil {
		return 0, 0, err
	}
	if npts, err = nextInt(); err != nil {
		return 0, 0, err
	}
	if _, err = next(); err != nil { // data type
		return 0, 0, err
	}
	for k := 0; k < 3*npts; k++ {
		t, err := next()
		if err != nil {
			return 0, 0, fmt.Errorf("vtk: points section truncated at %d/%d coords: %w", k, 3*npts, err)
		}
		if _, err := strconv.ParseFloat(t, 64); err != nil {
			return 0, 0, fmt.Errorf("vtk: bad coordinate %q: %w", t, err)
		}
	}

	if err := expect("POLYGONS"); err != nil {
		return 0, 0, err
	}
	size := 0
	if ncells, err = nextInt(); err != nil {
		return 0, 0, err
	}
	if size, err = nextInt(); err != nil {
		return 0, 0, err
	}
	used := 0
	for c := 0; c < ncells; c++ {
		k, err := nextInt()
		if err != nil {
			return 0, 0, fmt.Errorf("vtk: polygons truncated at cell %d/%d: %w", c, ncells, err)
		}
		if k < 3 {
			return 0, 0, fmt.Errorf("vtk: polygon %d has %d vertices", c, k)
		}
		used += 1 + k
		for j := 0; j < k; j++ {
			idx, err := nextInt()
			if err != nil {
				return 0, 0, err
			}
			if idx < 0 || idx >= npts {
				return 0, 0, fmt.Errorf("vtk: polygon %d references point %d of %d", c, idx, npts)
			}
		}
	}
	if used != size {
		return 0, 0, fmt.Errorf("vtk: POLYGONS size field %d, actual %d", size, used)
	}
	return npts, ncells, nil
}

// ValidateVTKFile is ValidateVTK for a path.
func ValidateVTKFile(path string) (npts, ncells int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return ValidateVTK(f)
}
