// Command experiments regenerates every table and figure of the paper's
// demonstration (experiment index in DESIGN.md §4) and prints them as
// text tables. Results are deterministic for a given scale.
//
// Usage:
//
//	experiments [-scale small|medium] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "medium", "dataset scale: small or medium")
	only := flag.String("only", "", "run a single experiment (E1..E14)")
	flag.Parse()

	scale := experiments.Medium
	switch strings.ToLower(*scaleFlag) {
	case "small":
		scale = experiments.Small
	case "medium":
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	env, err := experiments.BuildEnv(scale)
	if err != nil {
		fatal(err)
	}
	ran := 0
	for _, e := range experiments.Experiments {
		if *only != "" && !strings.EqualFold(*only, e.Name) {
			continue
		}
		rep, err := e.Run(env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		fmt.Printf("%s\n%s\n", strings.Repeat("=", 78), rep)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment named %q\n", *only)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
