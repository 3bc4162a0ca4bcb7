// Command rbcflow runs one named scenario from the registry — torus by
// default — with per-step diagnostics, optional checkpointing, and optional
// VTK/CSV output. It is the single-run counterpart of cmd/campaign, and with
// -exp it regenerates the paper's scaling, sedimentation and verification
// studies instead.
//
//	rbcflow -list
//	rbcflow -scenario torus -cells 8 -steps 3
//	rbcflow -scenario capsule -out out/capsule -checkpoint-every 2
//	rbcflow -exp fig4            # strong scaling (fig5/fig6: weak, SKX/KNL)
//	rbcflow -exp fig7            # sedimentation
//	rbcflow -exp fig9 [-level 2] # boundary-solver convergence
//	rbcflow -exp fig11           # collision-aware time stepping
package main

import (
	"flag"
	"fmt"
	"os"

	"rbcflow/cmd/internal/driver"
	"rbcflow/internal/experiments"
	"rbcflow/internal/par"
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
	exp := flag.String("exp", "", "regenerate a paper study instead of running a scenario: fig4 | fig5 | fig6 | fig7 | fig9 | fig11")
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
	if *exp != "" {
		return runExperiment(*exp, f, *cells, *level, *order)
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

// runExperiment regenerates one of the paper's studies through
// internal/experiments. The run flags keep their meaning but take each
// study's own default unless given: -cells, -steps, -order and -level size
// the workload, -ranks is the largest rank count of a scaling ladder
// 1, 2, 4, …, and -level is the deepest refinement of the fig9 study.
func runExperiment(exp string, f *driver.Flags, cells, level, order int) int {
	given := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
	pick := func(name string, v, def int) int {
		if given[name] {
			return v
		}
		return def
	}
	var ranks []int
	for r := 1; r <= pick("ranks", f.Ranks, 8); r *= 2 {
		ranks = append(ranks, r)
	}
	switch exp {
	case "fig4":
		experiments.StrongScaling(os.Stdout, ranks, level, pick("cells", cells, 24), pick("steps", f.Steps, 2))
	case "fig5":
		experiments.WeakScaling(os.Stdout, par.SKX(), ranks, pick("cells", cells, 24), pick("steps", f.Steps, 2))
	case "fig6":
		experiments.WeakScaling(os.Stdout, par.KNL(), ranks, pick("cells", cells, 24), pick("steps", f.Steps, 2))
	case "fig7":
		experiments.Sedimentation(os.Stdout, pick("cells", cells, 14), pick("steps", f.Steps, 4))
	case "fig9":
		var levels []int
		for l := 0; l <= pick("level", level, 1); l++ {
			levels = append(levels, l)
		}
		experiments.BoundaryConvergence(os.Stdout, levels)
	case "fig11":
		experiments.ShearConvergence(os.Stdout, pick("order", order, 8), 1.0, []int{2, 4, 8, 16})
	default:
		fmt.Fprintln(os.Stderr, "unknown experiment", exp)
		return 1
	}
	return 0
}
