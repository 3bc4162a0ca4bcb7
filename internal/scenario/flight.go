package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rbcflow/internal/telemetry"
	"rbcflow/internal/trace"
)

// FlightMeta is the provenance section of a flight-recorder bundle: enough
// to rebuild the exact failing run offline — the scenario and its full
// parameter set identify the workload, Step/ResumedFrom pin where in the
// trajectory the trip happened.
type FlightMeta struct {
	Scenario    string `json:"scenario"`
	ParamsSig   string `json:"params_sig"`
	Params      Params `json:"params"`
	Seed        int64  `json:"seed"`
	Step        int    `json:"step"` // step the run halted inside
	ResumedFrom int    `json:"resumed_from"`
	Ranks       int    `json:"ranks"`
}

// HealthError is returned by ExecuteContext when the numerical-health
// monitor trips: the run halted at a step boundary and a flight-recorder
// bundle was written (BundleDir empty when the run had no output directory).
// It is an error — the run did NOT reach its step target — but a structured
// one, so the campaign layer can record the verdicts and bundle path instead
// of just a message.
type HealthError struct {
	Scenario  string
	Step      int
	Verdicts  []trace.Verdict
	BundleDir string
}

func (e *HealthError) Error() string {
	msg := fmt.Sprintf("scenario %s: numerical-health monitor tripped at step %d (%d verdicts)",
		e.Scenario, e.Step, len(e.Verdicts))
	for _, v := range e.Verdicts {
		if v.Fatal {
			msg += "; " + v.String()
			break
		}
	}
	if e.BundleDir != "" {
		msg += "; postmortem bundle: " + e.BundleDir
	}
	return msg
}

// writeBundleJSON writes one pretty-printed JSON file of the bundle.
func writeBundleJSON(dir, name string, v any) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// WriteFlightBundle writes the postmortem bundle of a tripped run under
// outDir/postmortem: the health report (verdicts + retained GMRES residual
// histories) with the run's provenance, the execution-timeline tail as
// Chrome trace JSON, the cumulative telemetry snapshot, and the scenario
// configuration. Every file is independently loadable; trace.json opens
// directly in Perfetto. Returns the bundle directory.
func WriteFlightBundle(outDir string, meta FlightMeta, h *trace.Health, rec *trace.Recorder, tel *telemetry.Registry) (string, error) {
	dir := filepath.Join(outDir, "postmortem")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type healthFile struct {
		Meta   FlightMeta   `json:"meta"`
		Health trace.Report `json:"health"`
	}
	if _, err := writeBundleJSON(dir, "health.json", healthFile{Meta: meta, Health: h.Report()}); err != nil {
		return "", err
	}
	if rec != nil {
		if err := rec.WriteChromeFile(filepath.Join(dir, "trace.json")); err != nil {
			return "", err
		}
	}
	if _, err := writeBundleJSON(dir, "telemetry.json", tel.Snapshot()); err != nil {
		return "", err
	}
	if _, err := writeBundleJSON(dir, "scenario.json", meta.Params); err != nil {
		return "", err
	}
	return dir, nil
}
