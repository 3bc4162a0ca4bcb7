// Command rbcflow runs one named scenario from the registry — torus by
// default — with per-step diagnostics, optional checkpointing, and optional
// VTK/CSV output. It is the single-run counterpart of cmd/campaign, which
// also runs the paper's scaling studies (EXPERIMENTS.md lists the commands).
// Scenario knobs are Params keys in -params, campaign -sweep's grammar with
// one value per key; an unset key takes the scenario's default. Network
// scenarios print their flow table first; -steps 0 stops after the tables.
//
//	rbcflow -list
//	rbcflow -scenario torus -params "max_cells=8" -steps 3
//	rbcflow -scenario capsule -out out/capsule -checkpoint-every 2
//	rbcflow -scenario network-tree -params "depth=3" -steps 0
//	rbcflow -scenario network-y -save-network net.json
//	rbcflow -network net.json
package main

import (
	"flag"
	"fmt"
	"os"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/network"
	"rbcflow/internal/scenario"
	"rbcflow/internal/vessel"
)

// main delegates to run so deferred cleanup (the -debug-addr listener
// shutdown) executes on EVERY exit path — os.Exit in main would skip it.
func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	*driver.Flags
	scenario, params, network, saveNetwork string
	list, volCheck, noResume               bool
	checkpointEvery, injectNaN             int
}

func bind(fs *flag.FlagSet) *options {
	o := &options{Flags: driver.Bind(fs, 3, 2, "")}
	fs.StringVar(&o.scenario, "scenario", "torus", "registered scenario name")
	fs.BoolVar(&o.list, "list", false, "list registered scenarios and exit")
	fs.StringVar(&o.params, "params", "", `scenario parameters as Params keys, e.g. "max_cells=8;hct=0.2" (unset = the scenario's default)`)
	fs.StringVar(&o.network, "network", "", "run the network-json scenario on this JSON network file")
	fs.StringVar(&o.saveNetwork, "save-network", "", "save the scenario's network graph as JSON and exit")
	fs.BoolVar(&o.volCheck, "volcheck", false, "compute the order-converged junction volume with error bars (network scenarios; extra geometry builds)")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "checkpoint every k steps (needs -out)")
	fs.BoolVar(&o.noResume, "no-resume", false, "ignore an existing checkpoint")
	fs.IntVar(&o.injectNaN, "inject-nan-step", 0, "TESTING: poison one cell coordinate with NaN at this step to exercise the flight recorder")
	return o
}

// spec is the run the options ask for; -network selects network-json.
func (o *options) spec() (scenario.RunSpec, error) {
	p, err := scenario.ParseParams(o.params)
	if err != nil {
		return scenario.RunSpec{}, err
	}
	spec := scenario.RunSpec{Scenario: o.scenario, Tier: o.Tier, Params: p}
	if o.network != "" {
		spec.Scenario, spec.Params.NetworkPath = "network-json", o.network
	}
	_, err = spec.Resolve()
	return spec, err
}

func run(args []string) int {
	fs := flag.NewFlagSet("rbcflow", flag.ExitOnError)
	o := bind(fs)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2
	if o.list {
		for _, s := range scenario.Names() {
			fmt.Println(" ", s)
		}
		return 0
	}
	spec, err := o.spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if o.saveNetwork != "" {
		// Graph-only path: no flow solve or surface build for an export.
		net, err := scenario.NetworkGraph(spec.Scenario, spec.Params)
		if err == nil {
			err = network.Save(net, o.saveNetwork)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("saved network (%d nodes, %d segments) to %s\n", len(net.Nodes), len(net.Segs), o.saveNetwork)
		return 0
	}
	rn := o.Runner()
	rn.CheckpointEvery, rn.NoResume, rn.InjectNaNStep = o.checkpointEvery, o.noResume, o.injectNaN
	if o.Tier == scenario.TierSurrogate {
		return o.Run(rn, spec)
	}

	b, err := scenario.Build(spec.Scenario, spec.Params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	net := b.Geom.Net
	switch {
	case net != nil:
		driver.PrintNetwork(b)
	case b.Surf != nil:
		fmt.Printf("%s: %d patches, %d cells, volume fraction %.1f%%\n",
			spec.Scenario, b.Surf.F.NumPatches(), len(b.Cells), 100*vessel.VolumeFraction(b.Surf, b.Cells))
	default:
		fmt.Printf("%s: free space, %d cells\n", spec.Scenario, len(b.Cells))
	}
	if o.volCheck && net == nil {
		fmt.Fprintf(os.Stderr, "-volcheck: %s is not a network scenario\n", spec.Scenario)
		return 2
	}
	if o.volCheck {
		// Rebuild on the exact TubeParams the simulated geometry used.
		vol, errEst, err := network.NumericalVolume(net, b.Geom.NetGeom.Tube, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("  converged volume %.6f ± %.2e (tube-sum reference %.3f)\n",
			vol, errEst, b.Geom.NetGeom.AnalyticVolume())
	}
	if o.Steps == 0 {
		return 0
	}
	if net != nil {
		fmt.Printf("surface: %d patches (volume %.3f, tube-sum reference %.3f); %d cells seeded\n",
			b.Surf.F.NumPatches(), b.Surf.EnclosedVolume(), b.Geom.NetGeom.AnalyticVolume(), len(b.Cells))
	}
	spec.Bundle = b
	return o.Run(rn, spec)
}
