package surrogate

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fakeReference scales the surrogate prediction by a radius-dependent factor,
// so the fitted calibration must recover those factors exactly (the LS fit of
// y = f·x against samples generated as y = f·x is f).
func fakeReference(c Case, res *Result) ([]Sample, error) {
	var samples []Sample
	for si, s := range c.Net.Segs {
		vmax := 2 * res.Flow.Q[si] / (math.Pi * s.Radius * s.Radius)
		factor := 0.8
		if s.Radius > 0.8 {
			factor = 0.9
		}
		samples = append(samples, Sample{Radius: s.Radius, Predicted: vmax, Measured: factor * vmax})
	}
	return samples, nil
}

func TestCalibrateRecoversFactors(t *testing.T) {
	cases := []Case{
		{Name: "y", Net: testY(), Params: Params{InletHct: 0.3}},
		{Name: "tree", Net: testTree(2), Params: Params{InletHct: 0.3}},
	}
	cal, rep, err := Calibrate(cases, fakeReference, CalibrateConfig{
		Edges: []float64{0.8},
		RefID: "fake",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Regimes) != 2 {
		t.Fatalf("want 2 regimes, got %d", len(cal.Regimes))
	}
	if f := cal.FactorFor(0.5); math.Abs(f-0.8) > 1e-12 {
		t.Fatalf("child-regime factor %g, want 0.8", f)
	}
	if f := cal.FactorFor(1.0); math.Abs(f-0.9) > 1e-12 {
		t.Fatalf("parent-regime factor %g, want 0.9", f)
	}
	// The fake reference is exactly linear per regime, so the corrected RMS
	// must vanish while the uncorrected one reflects the 10–20% bias.
	for _, rg := range cal.Regimes {
		if rg.Samples == 0 {
			continue
		}
		if rg.RMSAfter > 1e-12 {
			t.Fatalf("regime (%g,%g]: corrected RMS %g should vanish", rg.RMin, rg.RMax, rg.RMSAfter)
		}
		if rg.RMSBefore < 0.05 {
			t.Fatalf("regime (%g,%g]: uncorrected RMS %g suspiciously small", rg.RMin, rg.RMax, rg.RMSBefore)
		}
	}
	if cal.Fingerprint == "" || rep.Fingerprint != cal.Fingerprint {
		t.Fatalf("fingerprint mismatch: artifact %q report %q", cal.Fingerprint, rep.Fingerprint)
	}
	for _, cr := range rep.Cases {
		if cr.Samples == 0 || cr.RMSAfter > 1e-12 {
			t.Fatalf("case %s: samples=%d rms_after=%g", cr.Name, cr.Samples, cr.RMSAfter)
		}
	}
}

func TestCalibrationFingerprintSensitivity(t *testing.T) {
	mk := func(hct float64, refID string) string {
		cases := []Case{{Name: "y", Net: testY(), Params: Params{InletHct: hct}}}
		cal, _, err := Calibrate(cases, fakeReference, CalibrateConfig{Edges: []float64{0.8}, RefID: refID})
		if err != nil {
			t.Fatal(err)
		}
		return cal.Fingerprint
	}
	base := mk(0.3, "fake")
	if mk(0.3, "fake") != base {
		t.Fatal("fingerprint not deterministic")
	}
	if mk(0.35, "fake") == base {
		t.Fatal("fingerprint ignores solver parameters")
	}
	if mk(0.3, "other-ref") == base {
		t.Fatal("fingerprint ignores reference identity")
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	cases := []Case{{Name: "y", Net: testY(), Params: Params{InletHct: 0.3}}}
	cal, rep, err := Calibrate(cases, fakeReference, CalibrateConfig{Edges: []float64{0.8}, RefID: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.gob")
	if err := SaveCalibration(path, cal); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cal) {
		t.Fatalf("round trip mutated the artifact:\n got %+v\nwant %+v", got, cal)
	}
	// Bit-identical re-encode: saving the loaded artifact must reproduce the
	// original bytes exactly.
	path2 := filepath.Join(dir, "cal2.gob")
	if err := SaveCalibration(path2, got); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-encoded artifact differs from the original bytes")
	}
	// The JSON report must marshal (the open bin uses MaxFloat64, not +Inf)
	// and parse back.
	rpath := filepath.Join(dir, "report.json")
	if err := WriteReport(rpath, rep); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Report
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if parsed.Fingerprint != cal.Fingerprint {
		t.Fatal("report fingerprint drifted through JSON")
	}
}

func TestLoadCalibrationVersionCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stale.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := &Calibration{Version: CalibrationVersion + 1, Fingerprint: "x"}
	if err := gob.NewEncoder(f).Encode(stale); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadCalibration(path); err == nil {
		t.Fatal("stale-version artifact accepted")
	}
	if err := SaveCalibration(filepath.Join(dir, "nofp.gob"), &Calibration{Version: CalibrationVersion}); err == nil {
		t.Fatal("fingerprint-less artifact saved")
	}
}

func TestCorrectedVelocityAppliesFactors(t *testing.T) {
	cal := &Calibration{
		Version:     CalibrationVersion,
		Fingerprint: "test",
		Law:         "pries-invitro",
		Regimes: []Regime{
			{RMin: 0, RMax: 0.8, Factor: 0.5, Samples: 1},
			{RMin: 0.8, RMax: math.MaxFloat64, Factor: 2, Samples: 1},
		},
	}
	res, err := Solve(testY(), Params{InletHct: 0.3, Calibration: cal})
	if err != nil {
		t.Fatal(err)
	}
	if res.CorrectedVelocity == nil {
		t.Fatal("no corrected velocities despite a calibration")
	}
	n := testY()
	for si, s := range n.Segs {
		want := cal.FactorFor(s.Radius) * res.MeanVelocity[si]
		if res.CorrectedVelocity[si] != want {
			t.Fatalf("segment %d: corrected %g, want %g", si, res.CorrectedVelocity[si], want)
		}
	}
	if f := cal.FactorFor(0.8); f != 0.5 {
		t.Fatalf("bin edge must belong to the lower regime, got factor %g", f)
	}
}

// validCalibration is a well-formed two-regime artifact.
func validCalibration() *Calibration {
	return &Calibration{
		Version:     CalibrationVersion,
		Fingerprint: "f",
		Law:         "pries-invitro",
		Rheology:    Rheology{MuPlasma: 1, MicronsPerUnit: 10},
		Regimes: []Regime{
			{RMin: 0, RMax: 0.8, Factor: 0.8, Samples: 3},
			{RMin: 0.8, RMax: math.MaxFloat64, Factor: 0.9, Samples: 2},
		},
	}
}

// invalidCalibrations are artifacts LoadCalibration must refuse, by name.
func invalidCalibrations() map[string]*Calibration {
	bad := map[string]func(c *Calibration){
		"nan-factor":           func(c *Calibration) { c.Regimes[0].Factor = math.NaN() },
		"zero-factor":          func(c *Calibration) { c.Regimes[1].Factor = 0 },
		"negative-factor":      func(c *Calibration) { c.Regimes[0].Factor = -0.8 },
		"inf-factor":           func(c *Calibration) { c.Regimes[1].Factor = math.Inf(1) },
		"nan-mu-plasma":        func(c *Calibration) { c.Rheology.MuPlasma = math.NaN() },
		"negative-mu-plasma":   func(c *Calibration) { c.Rheology.MuPlasma = -1 },
		"negative-microns":     func(c *Calibration) { c.Rheology.MicronsPerUnit = -10 },
		"inf-microns":          func(c *Calibration) { c.Rheology.MicronsPerUnit = math.Inf(1) },
		"empty-range":          func(c *Calibration) { c.Regimes[0].RMax = c.Regimes[0].RMin },
		"reversed-range":       func(c *Calibration) { c.Regimes[0].RMin, c.Regimes[0].RMax = 0.8, 0 },
		"nan-edge":             func(c *Calibration) { c.Regimes[1].RMin = math.NaN() },
		"overlapping-regimes":  func(c *Calibration) { c.Regimes[1].RMin = 0.5 },
		"duplicated-regime":    func(c *Calibration) { c.Regimes = append(c.Regimes, c.Regimes[0]) },
		"unsorted-overlapping": func(c *Calibration) { c.Regimes = []Regime{c.Regimes[1], {RMin: 1, RMax: 2, Factor: 1}} },
		"other-version":        func(c *Calibration) { c.Version = CalibrationVersion + 1 },
	}
	out := map[string]*Calibration{}
	for name, mutate := range bad {
		c := validCalibration()
		mutate(c)
		out[name] = c
	}
	return out
}

func gobBytes(tb testing.TB, c *Calibration) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A decodable artifact of the current version is not enough: a factor that
// is not finite and positive, a viscosity or length scale that is set but
// not finite and positive, an empty radius range, or overlapping regimes
// are refused with ErrCalibration instead of reaching the surrogate's
// viscosities.
func TestLoadCalibrationRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.gob")
	if err := SaveCalibration(good, validCalibration()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(good); err != nil {
		t.Fatalf("valid artifact refused: %v", err)
	}
	// An unset (zero) rheology means the defaults, as everywhere else.
	unset := validCalibration()
	unset.Rheology = Rheology{}
	if err := SaveCalibration(good, unset); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(good); err != nil {
		t.Fatalf("artifact with the default rheology refused: %v", err)
	}
	for name, c := range invalidCalibrations() {
		path := filepath.Join(dir, name+".gob")
		if err := SaveCalibration(path, c); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCalibration(path)
		if err == nil {
			t.Errorf("%s: accepted, regimes %+v rheology %+v", name, got.Regimes, got.Rheology)
			continue
		}
		if !errors.Is(err, ErrCalibration) {
			t.Errorf("%s: error outside ErrCalibration: %v", name, err)
		}
	}
	if _, err := LoadCalibration(filepath.Join(dir, "missing.gob")); err == nil || errors.Is(err, ErrCalibration) {
		t.Errorf("missing file: %v, want a file error outside ErrCalibration", err)
	}
}

// FuzzLoadCalibration: whatever the bytes, the reader returns an error
// wrapping ErrCalibration or a calibration whose every factor is finite and
// positive wherever FactorFor can return it, and which reads back the same
// after a round trip through gob.
func FuzzLoadCalibration(f *testing.F) {
	valid := gobBytes(f, validCalibration())
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	for _, c := range invalidCalibrations() {
		f.Add(gobBytes(f, c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readCalibration(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCalibration) {
				t.Fatalf("error outside ErrCalibration: %v", err)
			}
			return
		}
		for _, rg := range c.Regimes {
			for _, r := range []float64{rg.RMax, (rg.RMin + rg.RMax) / 2} {
				if k := c.FactorFor(r); !(k > 0) || math.IsInf(k, 0) {
					t.Fatalf("accepted calibration gives factor %g at radius %g", k, r)
				}
			}
		}
		if _, err := readCalibration(bytes.NewReader(gobBytes(t, c))); err != nil {
			t.Fatalf("accepted calibration does not read back: %v", err)
		}
	})
}
