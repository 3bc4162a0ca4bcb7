// Command rbcflow runs one named scenario from the registry — torus by
// default — with per-step diagnostics, optional checkpointing, and optional
// VTK/CSV output. It is the single-run counterpart of cmd/campaign, which
// also runs the paper's scaling studies (EXPERIMENTS.md lists the commands).
//
//	rbcflow -list
//	rbcflow -scenario torus -cells 8 -steps 3
//	rbcflow -scenario capsule -out out/capsule -checkpoint-every 2
package main

import (
	"flag"
	"fmt"
	"os"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/scenario"
	"rbcflow/internal/vessel"
)

// main delegates to run so deferred cleanup (the -debug-addr listener
// shutdown) executes on EVERY exit path — os.Exit in main would skip it.
func main() {
	os.Exit(run())
}

func run() int {
	f := driver.Bind(flag.CommandLine, 3, 2, "")
	name := flag.String("scenario", "torus", "registered scenario name")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	cells := flag.Int("cells", 8, "maximum number of cells")
	level := flag.Int("level", 0, "vessel refinement level")
	order := flag.Int("order", 4, "cell spherical-harmonic order")
	hct := flag.Float64("hct", 0, "inlet haematocrit (network scenarios; 0 = default)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint every k steps (needs -out)")
	noResume := flag.Bool("no-resume", false, "ignore an existing checkpoint")
	injectNaN := flag.Int("inject-nan-step", 0, "TESTING: poison one cell coordinate with NaN at this step to exercise the flight recorder")
	flag.Parse()

	if *list {
		for _, s := range scenario.Names() {
			fmt.Println(" ", s)
		}
		return 0
	}

	spec := scenario.RunSpec{
		Scenario: *name, Tier: f.Tier,
		Params: scenario.Params{
			SphOrder: *order, Level: *level, MaxCells: *cells, Hct: *hct,
		},
	}
	if _, err := spec.Resolve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if f.Tier != scenario.TierSurrogate {
		b, err := scenario.Build(*name, spec.Params)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if b.Surf != nil {
			fmt.Printf("%s: %d patches, %d cells, volume fraction %.1f%%\n",
				*name, b.Surf.F.NumPatches(), len(b.Cells), 100*vessel.VolumeFraction(b.Surf, b.Cells))
		} else {
			fmt.Printf("%s: free space, %d cells\n", *name, len(b.Cells))
		}
		spec.Bundle = b
	}
	rn := f.Runner()
	rn.CheckpointEvery, rn.NoResume, rn.InjectNaNStep = *ckptEvery, *noResume, *injectNaN
	return f.Run(rn, spec)
}
