package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runSet is the file `bench run` writes and `bench compare` reads: every
// value of every metric, per workload, over the seeds of one set of runs.
type runSet struct {
	Go         string                  `json:"go"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	NProc      int                     `json:"nproc"`
	Seconds    int                     `json:"seconds"`
	Seeds      []int64                 `json:"seeds"`
	Workloads  map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// child runs one workload once in a process of its own — cold caches, its
// own peak RSS — and returns the parsed result line.
func child(exe, workload string, seed int64, seconds int, traced bool, outDir string) (*resultLine, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", tr, "--out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: %w\n%s", workload, seed, tr, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "FAILED CHECK:") {
			fmt.Printf("%s seed %d: %s\n", workload, seed, l)
		}
	}
	return &line, nil
}

// cmdRun runs workloads over a range of seeds, each run in a child process:
// untraced for every seed, traced for the first -traced of them.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first seed")
	runs := fs.Int("runs", 1, "number of seeds (seed, seed+1, ...)")
	tracedRuns := fs.Int("traced", 1, "how many of the seeds also get a traced run")
	only := fs.String("workload", "", "comma-separated workloads (default: all)")
	seconds := fs.Int("seconds", runSeconds, "length of the measured phase")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the set file and the traces")
	name := fs.String("name", "set", "name of the set file (<out>/<name>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames()
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench run:", err)
		return 1
	}
	set := &runSet{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seconds: *seconds, Workloads: map[string]*workloadSet{}}
	for i := 0; i < *runs; i++ {
		set.Seeds = append(set.Seeds, *seed+int64(i))
	}

	ok := true
	for _, wl := range names {
		ws := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		set.Workloads[wl] = ws
		for i, sd := range set.Seeds {
			for _, traced := range []bool{false, true} {
				if traced && i >= *tracedRuns {
					continue
				}
				line, err := child(exe, wl, sd, *seconds, traced, *outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench run:", err)
					return 1
				}
				ws.Attempted += line.Attempted
				ws.Failed += line.Failed
				ok = ok && line.Correct
				defs, into := endToEnd, ws.EndToEnd
				if traced {
					defs, into = perLayer, ws.PerLayer
				}
				for _, d := range defs {
					m := line.Metrics[d.Name]
					into[d.Name] = append(into[d.Name], m.Value)
					fmt.Printf("%-13s seed %-3d %-34s %14.6g %s\n", wl, sd, d.Name, m.Value, m.Unit)
				}
			}
		}
		fmt.Printf("%-13s attempted %d failed %d\n", wl, ws.Attempted, ws.Failed)
	}

	blob, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.MkdirAll(*outDir, 0o755)
	}
	path := filepath.Join(*outDir, *name+".json")
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench run:", err)
		return 1
	}
	fmt.Println("set written to", path)
	if !ok {
		fmt.Println("FAILED: at least one output check failed")
		return 1
	}
	return 0
}

// exactCounts are per-layer metrics that count work and so must repeat
// exactly between two sets of the same commit and seeds (except where the
// tree FMM, not yet repeatable, feeds them).
var exactCounts = []string{"bie.gmres.iters_per_solve", "fmm.direct_calls", "fmm.tree_calls", "collision.pairs", "serve.plan_builds"}

// verdict classifies set B against set A for one lower-or-higher-is-better
// metric: "unresolved" when either set's own spread exceeds the bound,
// "regressed" when B's median is worse than A's by more than the bound.
func verdict(d metricDef, a, b []float64) (medA, medB, ratio float64, v string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		ratio = medB / medA
	}
	worse := medB > medA*(1+d.Bound)
	if d.Better == "higher" {
		worse = medB < medA*(1-d.Bound)
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		v = "unresolved"
	case worse:
		v = "regressed"
	default:
		v = "ok"
	}
	return
}

func readSet(path string) (*runSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// cmdCompare prints, per workload and end-to-end metric, both medians, the
// ratio B/A, the bound and the verdict; then the exact-count metrics.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	bad := 0
	fmt.Printf("%-13s %-12s %12s %12s %10s %10s %10s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloadNames() {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			medA, medB, ratio, v := verdict(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-13s %-12s %12.5g %12.5g %10.4f %9.2f%% %9.2f%% %5.0f%%  %s\n", wl, d.Name,
				medA, medB, ratio, 100*spread(wa.EndToEnd[d.Name]), 100*spread(wb.EndToEnd[d.Name]), 100*d.Bound, v)
		}
	}
	for _, wl := range workloadNames() {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if wa == nil || wb == nil || len(wa.PerLayer) == 0 || len(wb.PerLayer) == 0 {
			continue
		}
		for _, n := range exactCounts {
			same := "same"
			if fmt.Sprint(wa.PerLayer[n]) != fmt.Sprint(wb.PerLayer[n]) {
				same = "differ"
			}
			fmt.Printf("%-13s %-28s %v %v  %s\n", wl, n, wa.PerLayer[n], wb.PerLayer[n], same)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
