package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"rbcflow/internal/network"
)

// CalibrationVersion is bumped whenever the artifact layout or the fitting
// numerics change; LoadCalibration rejects mismatches instead of
// mis-decoding, and the version participates in the fingerprint so a stale
// artifact can never be confused with a current one.
const CalibrationVersion = 1

// Regime is one radius bin of the calibration table: the least-squares
// factor mapping surrogate-predicted mid-segment centerline velocities onto
// reference-measured ones for segments with RMin < radius ≤ RMax.
type Regime struct {
	RMin    float64 `json:"r_min"`
	RMax    float64 `json:"r_max"`
	Factor  float64 `json:"factor"`
	Samples int     `json:"samples"`
	// RMSBefore / RMSAfter are the relative velocity errors of the bin's
	// samples before and after applying Factor.
	RMSBefore float64 `json:"rms_before"`
	RMSAfter  float64 `json:"rms_after"`
}

// Calibration is the persisted surrogate-tier correction artifact:
// versioned, content-addressed by a fingerprint over everything that shaped
// it (law constants, rheology scale, bin edges, case networks, reference
// identity), and saved/loaded through the same atomic gob protocol as
// bie.QuadPlan.
type Calibration struct {
	Version     int
	Fingerprint string
	// Law names the viscosity parameterization the factors correct
	// ("pries-invitro").
	Law      string
	Rheology Rheology
	Regimes  []Regime
}

// FactorFor returns the correction factor of the regime containing radius,
// or 1 when no regime covers it (empty bins are fitted to 1).
func (c *Calibration) FactorFor(radius float64) float64 {
	for _, rg := range c.Regimes {
		if radius > rg.RMin && radius <= rg.RMax {
			return rg.Factor
		}
	}
	return 1
}

// Sample is one matched probe: the surrogate's predicted axial velocity and
// the reference measurement at the same point, tagged with the segment
// radius that selects its regime.
type Sample struct {
	Radius    float64
	Predicted float64
	Measured  float64
}

// Case is one calibration network with the solver parameters to run it at.
type Case struct {
	Name   string
	Net    *network.Network
	Params Params
}

// Reference produces matched velocity samples for a solved case — the
// expensive half of the harness. BIEReference is the production
// implementation; tests substitute cheap fakes.
type Reference func(c Case, res *Result) ([]Sample, error)

// CalibrateConfig shapes the fit.
type CalibrateConfig struct {
	// Edges are the interior radius-bin boundaries, ascending; the regimes
	// are (0,e0], (e0,e1], …, (eLast, +inf).
	Edges []float64
	// Rheology recorded in (and fingerprinted into) the artifact.
	Rheology Rheology
	// RefID identifies the reference measurement (e.g. "bie:level=0,tol=1e-06")
	// and is folded into the fingerprint: factors measured against different
	// references are different content.
	RefID string
}

// CaseReport summarizes one case's samples in the JSON report.
type CaseReport struct {
	Name      string  `json:"name"`
	Samples   int     `json:"samples"`
	RMSBefore float64 `json:"rms_before"`
	RMSAfter  float64 `json:"rms_after"`
}

// Report is the human-readable JSON companion of a Calibration artifact.
type Report struct {
	Version     int          `json:"version"`
	Fingerprint string       `json:"fingerprint"`
	Law         string       `json:"law"`
	RefID       string       `json:"ref_id"`
	Cases       []CaseReport `json:"cases"`
	Regimes     []Regime     `json:"regimes"`
}

// Calibrate runs every case through the surrogate solver, collects matched
// reference samples, and fits one least-squares correction factor per
// radius regime. Returns the content-addressed artifact and its report.
func Calibrate(cases []Case, ref Reference, cfg CalibrateConfig) (*Calibration, *Report, error) {
	if len(cases) == 0 {
		return nil, nil, fmt.Errorf("surrogate: calibration needs at least one case")
	}
	edges := append([]float64(nil), cfg.Edges...)
	sort.Float64s(edges)
	cal := &Calibration{
		Version:  CalibrationVersion,
		Law:      "pries-invitro",
		Rheology: cfg.Rheology.withDefaults(),
	}
	rep := &Report{Version: CalibrationVersion, Law: cal.Law, RefID: cfg.RefID}

	binOf := func(r float64) int {
		for i, e := range edges {
			if r <= e {
				return i
			}
		}
		return len(edges)
	}
	bins := make([][]Sample, len(edges)+1)
	caseSamples := make([][]Sample, len(cases))
	for ci, cs := range cases {
		prm := cs.Params
		prm.Rheology = cfg.Rheology
		res, err := Solve(cs.Net, prm)
		if err != nil {
			return nil, nil, fmt.Errorf("surrogate: case %s: %w", cs.Name, err)
		}
		if !res.Converged {
			return nil, nil, fmt.Errorf("surrogate: case %s did not converge (residual %g after %d iters)",
				cs.Name, res.Residual, res.Iters)
		}
		samples, err := ref(cs, res)
		if err != nil {
			return nil, nil, fmt.Errorf("surrogate: case %s reference: %w", cs.Name, err)
		}
		for _, s := range samples {
			bins[binOf(s.Radius)] = append(bins[binOf(s.Radius)], s)
		}
		caseSamples[ci] = samples
		rep.Cases = append(rep.Cases, CaseReport{
			Name:      cs.Name,
			Samples:   len(samples),
			RMSBefore: rmsError(samples, func(Sample) float64 { return 1 }),
		})
	}

	for i, bin := range bins {
		// The open last bin tops out at MaxFloat64 rather than +Inf so the
		// JSON report stays marshalable (encoding/json rejects infinities).
		rg := Regime{RMin: 0, RMax: math.MaxFloat64, Factor: 1, Samples: len(bin)}
		if i > 0 {
			rg.RMin = edges[i-1]
		}
		if i < len(edges) {
			rg.RMax = edges[i]
		}
		if len(bin) > 0 {
			// Least-squares factor through the origin: measured ≈ f·predicted.
			var num, den float64
			for _, s := range bin {
				num += s.Measured * s.Predicted
				den += s.Predicted * s.Predicted
			}
			if den > 0 {
				rg.Factor = num / den
			}
			rg.RMSBefore = rmsError(bin, func(Sample) float64 { return 1 })
			rg.RMSAfter = rmsError(bin, func(Sample) float64 { return rg.Factor })
		}
		cal.Regimes = append(cal.Regimes, rg)
	}
	cal.Fingerprint = fingerprint(cases, cfg, edges)
	rep.Fingerprint = cal.Fingerprint
	rep.Regimes = cal.Regimes
	for i := range rep.Cases {
		rep.Cases[i].RMSAfter = rmsError(caseSamples[i], func(s Sample) float64 { return cal.FactorFor(s.Radius) })
	}
	return cal, rep, nil
}

// rmsError is the root-mean-square relative error of corrected predictions
// f(s)·Predicted against Measured.
func rmsError(samples []Sample, f func(Sample) float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		scale := math.Max(math.Abs(s.Measured), 1e-300)
		e := (f(s)*s.Predicted - s.Measured) / scale
		sum += e * e
	}
	return math.Sqrt(sum / float64(len(samples)))
}

// fingerprint content-addresses the calibration inputs: version, law,
// rheology, bin edges, reference identity, and every case's exact network
// (positions, segments, radii, control points, BCs) and solver parameters.
func fingerprint(cases []Case, cfg CalibrateConfig, edges []float64) string {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	ws := func(s string) {
		wi(len(s))
		h.Write([]byte(s))
	}
	wi(CalibrationVersion)
	ws("pries-invitro")
	rh := cfg.Rheology.withDefaults()
	wf(rh.MuPlasma)
	wf(rh.MicronsPerUnit)
	ws(cfg.RefID)
	wi(len(edges))
	for _, e := range edges {
		wf(e)
	}
	wi(len(cases))
	for _, cs := range cases {
		ws(cs.Name)
		prm := cs.Params.withDefaults()
		wf(prm.InletHct)
		wf(prm.Gamma)
		wf(prm.Relax)
		wf(prm.Tol)
		wi(prm.MaxIter)
		n := cs.Net
		wi(len(n.Nodes))
		for _, nd := range n.Nodes {
			wf(nd.Pos[0])
			wf(nd.Pos[1])
			wf(nd.Pos[2])
			wi(int(nd.BC.Kind))
			wf(nd.BC.Value)
		}
		wi(len(n.Segs))
		for _, s := range n.Segs {
			wi(s.A)
			wi(s.B)
			wf(s.Radius)
			wi(len(s.Ctrl))
			for _, c := range s.Ctrl {
				wf(c[0])
				wf(c[1])
				wf(c[2])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SaveCalibration writes the artifact as gob via a same-directory temp file
// and an atomic rename, so readers never observe a partial artifact.
func SaveCalibration(path string, c *Calibration) error {
	if c.Fingerprint == "" {
		return fmt.Errorf("surrogate: refusing to save calibration without a fingerprint")
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := gob.NewEncoder(f).Encode(c); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ErrCalibration is wrapped by every LoadCalibration error that means "this
// file is not a usable calibration": undecodable, another version, or
// values the surrogate cannot apply.
var ErrCalibration = errors.New("not a usable calibration")

// LoadCalibration reads an artifact back. It refuses, wrapping
// ErrCalibration, an artifact it cannot decode, one of another version and
// one whose values the surrogate could not apply (validate).
func LoadCalibration(path string) (*Calibration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := readCalibration(f)
	if err != nil {
		return nil, fmt.Errorf("surrogate: calibration %s: %w", path, err)
	}
	return c, nil
}

// readCalibration decodes and validates one gob artifact.
func readCalibration(r io.Reader) (*Calibration, error) {
	c := &Calibration{}
	if err := gob.NewDecoder(r).Decode(c); err != nil {
		return nil, fmt.Errorf("%w: decode: %w", ErrCalibration, err)
	}
	if c.Version != CalibrationVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCalibration, c.Version, CalibrationVersion)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate reports, wrapped in ErrCalibration, the first value the
// surrogate could not apply: a plasma viscosity or length scale that is not
// finite and positive once the defaults fill an unset (zero) one, a regime
// factor that is not finite and positive, a regime whose radius range is
// empty (RMin ≥ RMax, or NaN), or two regimes whose ranges overlap, which
// would make FactorFor depend on their order.
func (c *Calibration) validate() error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	rh := c.Rheology.withDefaults()
	if !positive(rh.MuPlasma) {
		return fmt.Errorf("%w: plasma viscosity %g", ErrCalibration, rh.MuPlasma)
	}
	if !positive(rh.MicronsPerUnit) {
		return fmt.Errorf("%w: microns per unit %g", ErrCalibration, rh.MicronsPerUnit)
	}
	for i, rg := range c.Regimes {
		if !positive(rg.Factor) {
			return fmt.Errorf("%w: regime %d: factor %g", ErrCalibration, i, rg.Factor)
		}
		if !(rg.RMin < rg.RMax) {
			return fmt.Errorf("%w: regime %d: radius range (%g, %g] is empty", ErrCalibration, i, rg.RMin, rg.RMax)
		}
	}
	byMin := append([]Regime(nil), c.Regimes...)
	sort.Slice(byMin, func(a, b int) bool { return byMin[a].RMin < byMin[b].RMin })
	for i := 1; i < len(byMin); i++ {
		if a, b := byMin[i-1], byMin[i]; b.RMin < a.RMax {
			return fmt.Errorf("%w: regimes (%g, %g] and (%g, %g] overlap", ErrCalibration, a.RMin, a.RMax, b.RMin, b.RMax)
		}
	}
	return nil
}

// WriteReport writes the JSON companion of an artifact.
func WriteReport(path string, r *Report) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
