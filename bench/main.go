// Command bench is the repository's benchmark: four workloads, each measured
// end to end through the entry points users hit and, in a separate traced
// run, layer by layer from outside. See README.md in this directory.
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1   one run, result as a JSON line
//	go run ./bench run [-seed 1] [-runs 1] [-workload NAME] [-out bench/out]
//	go run ./bench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: the default length of the
// measured phase.
const runSeconds = 16

// result is what one run of one workload produced.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts n failed operations with one reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failAll counts n failed operations with their reasons.
func (r *result) failAll(n int, problems []string) {
	r.failed += n
	r.problems = append(r.problems, problems...)
}

// peakRSSMB is this process's high-water resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload runs one workload once in this process.
func runWorkload(name string, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	if w, ok := simWorkloads()[name]; ok {
		return runSim(w, simOpts{seed: seed, steps: w.stepsFor(seconds), traced: traced, tmpDir: tmp, outDir: outDir})
	}
	if w := serveMix(); name == w.name {
		nBIE, nSur := w.counts(seconds)
		return runServe(w, serveOpts{seed: seed, nBIE: nBIE, nSurPerClass: nSur, traced: traced, tmpDir: tmp, outDir: outDir})
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// reported are the metrics a run reports and their values: the end-to-end
// ones of an untraced run, the per-layer ones of a traced run.
func (r *result) reported(traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return perLayer, r.layer
	}
	return endToEnd, r.e2e
}

// line renders a result as the contract's JSON line.
func (r *result) line(traced bool) resultLine {
	defs, vals := r.reported(traced)
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricOut{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// cmdOne is the single-run mode the acceptance driver calls.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", runSeconds, "how long the measured phase should last at the seed commit")
	traceFlag := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload NAME --seed N --seconds S --trace 0|1  |  bench run ...  |  bench compare A.json B.json")
		return 2
	}
	traced := *traceFlag == 1
	res, err := runWorkload(*workload, *seed, *seconds, traced, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	defs, vals := res.reported(traced)
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	blob, err := json.Marshal(res.line(traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}
