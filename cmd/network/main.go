// Command network simulates red blood cells flowing through a branching
// vascular network, built through the scenario registry (network-y,
// network-tree, network-honeycomb, or network-json for a JSON file): the
// registry solves the reduced-order Poiseuille/Kirchhoff flow model, splits
// haematocrit at the bifurcations by plasma skimming, seeds cells per
// segment, and synthesizes the inlet/outlet boundary profiles; this driver
// prints the flow table and steps the full boundary-integral simulation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/network"
	"rbcflow/internal/scenario"
	"rbcflow/internal/surrogate"
	"rbcflow/internal/vessel"
)

// main delegates to run so deferred cleanup (the -debug-addr listener
// shutdown) executes on EVERY exit path — os.Exit in main would skip it.
func main() {
	os.Exit(run())
}

func run() int {
	f := driver.Bind(flag.CommandLine, 3, 2, "")
	scn := flag.String("scenario", "y", "network scenario: y | tree | honeycomb (or any registered network-* name)")
	load := flag.String("load", "", "load a JSON network instead of a builder")
	save := flag.String("save", "", "save the built network as JSON and exit")
	depth := flag.Int("depth", 2, "tree depth (tree scenario)")
	rows := flag.Int("rows", 1, "honeycomb rows")
	cols := flag.Int("cols", 2, "honeycomb cols")
	maxCells := flag.Int("cells", 6, "maximum number of cells")
	level := flag.Int("level", 0, "surface refinement level")
	order := flag.Int("order", 4, "cell spherical-harmonic order")
	hct := flag.Float64("hct", 0.12, "inlet discharge haematocrit")
	gamma := flag.Float64("gamma", 1.4, "plasma-skimming exponent")
	inflow := flag.Float64("inflow", 2.0, "inlet volumetric flow")
	simulate := flag.Bool("sim", true, "run the boundary-integral simulation")
	blend := flag.Float64("blend", 0, "junction blend width in units of the smallest radius (0 = default)")
	volCheck := flag.Bool("volcheck", false, "compute the order-converged junction volume with error bars (extra geometry builds)")
	calibrate := flag.String("calibrate", "", "fit the surrogate calibration against BIE references and write <dir>/calibration.gob + calibration.json, then exit")
	flag.Parse()

	if *calibrate != "" {
		return runCalibrate(*calibrate, *hct, *gamma)
	}

	name := *scn
	if !strings.HasPrefix(name, "network-") {
		name = "network-" + name
	}
	if *load != "" {
		name = "network-json"
	}
	params := scenario.Params{
		SphOrder: *order, Level: *level, MaxCells: *maxCells,
		Hct: *hct, Gamma: *gamma, Inflow: *inflow,
		Depth: *depth, Rows: *rows, Cols: *cols,
		NetworkPath:   *load,
		JunctionBlend: *blend,
	}

	if *save != "" {
		// Graph-only path: no flow solve or surface build for an export.
		net, err := scenario.NetworkGraph(name, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := network.Save(net, *save); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("saved network (%d nodes, %d segments) to %s\n", len(net.Nodes), len(net.Segs), *save)
		return 0
	}

	rn := f.Runner()
	spec := scenario.RunSpec{Scenario: name, Params: params, Tier: f.Tier}
	if _, err := spec.Resolve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if f.Tier == scenario.TierSurrogate {
		return f.Run(rn, spec)
	}

	b, err := scenario.Build(name, params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	net, flow, H := b.Geom.Net, b.Geom.Flow, b.Haematocrit

	fmt.Printf("network: %d nodes, %d segments; max junction imbalance %.2e\n",
		len(net.Nodes), len(net.Segs), flow.MaxImbalance(net))
	fmt.Println("  seg   A ->  B   radius   length     flow  haematocrit")
	for si, s := range net.Segs {
		fmt.Printf("  %3d %3d -> %2d %8.3f %8.3f %8.4f %12.4f\n",
			si, s.A, s.B, s.Radius, net.SegmentLength(si), flow.Q[si], H[si])
	}

	fmt.Printf("geometry: blended junctions (effective blend %g), net wall flux %.2e, closure defect %.2e\n",
		b.Geom.NetGeom.EffectiveBlend, b.Surf.NetFlux(b.G, nil), network.ClosureDefect(b.Surf))
	if *volCheck {
		// Rebuild on the exact TubeParams the simulated geometry used.
		vol, errEst, err := network.NumericalVolume(net, b.Geom.NetGeom.Tube, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("  converged volume %.6f ± %.2e (tube-sum reference %.3f)\n",
			vol, errEst, b.Geom.NetGeom.AnalyticVolume())
	}

	if !*simulate {
		return 0
	}
	fmt.Printf("surface: %d patches (volume %.3f, tube-sum reference %.3f); %d cells seeded\n",
		b.Surf.F.NumPatches(), vessel.Volume(b.Surf), b.Geom.NetGeom.AnalyticVolume(), len(b.Cells))
	if len(b.Cells) == 0 {
		fmt.Println("no cells fit this configuration; increase -hct or network size")
		return 0
	}

	spec.Bundle = b
	return f.Run(rn, spec)
}

// runCalibrate fits the surrogate correction factors against full
// boundary-integral references on the built-in calibration suite, then
// writes the content-addressed artifact and its JSON report into dir.
func runCalibrate(dir string, hct, gamma float64) int {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("calibrating surrogate against BIE references (Y bifurcation + depth-2 tree)...")
	start := time.Now()
	cal, rep, err := surrogate.CalibrateBuiltin(surrogate.BIEReferenceConfig{}, surrogate.Params{
		InletHct: hct, Gamma: gamma,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	gobPath := filepath.Join(dir, "calibration.gob")
	jsonPath := filepath.Join(dir, "calibration.json")
	if err := surrogate.SaveCalibration(gobPath, cal); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := surrogate.WriteReport(jsonPath, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("calibration %.12s fitted in %s\n", cal.Fingerprint, time.Since(start).Round(time.Millisecond))
	for _, r := range cal.Regimes {
		upper := "inf"
		if r.RMax < math.MaxFloat64 {
			upper = fmt.Sprintf("%.3g", r.RMax)
		}
		fmt.Printf("  radius [%.3g, %s): factor %.6f over %d sample(s), RMS %.3g -> %.3g\n",
			r.RMin, upper, r.Factor, r.Samples, r.RMSBefore, r.RMSAfter)
	}
	fmt.Printf("artifact: %s\nreport:   %s\n", gobPath, jsonPath)
	return 0
}
