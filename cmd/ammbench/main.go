// Command ammbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ammbench [-epochs N] [-seed S] [-committee N] <experiment>|all
//
// The usage text (ammbench -h) lists every experiment in run order.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ammboost/internal/experiments"
)

func main() {
	epochs := flag.Int("epochs", 11, "epochs per run (paper: 11)")
	seed := flag.Int64("seed", 42, "experiment seed")
	committee := flag.Int("committee", 500, "sidechain committee size")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ammbench [flags] <experiment>|all\nexperiments: %v\n", experiments.Names())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	opts := experiments.Options{Epochs: *epochs, Seed: *seed, CommitteeSize: *committee}
	reg := experiments.Registry()

	var names []string
	if flag.Arg(0) == "all" {
		names = experiments.Names()
	} else {
		if _, ok := reg[flag.Arg(0)]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v\n", flag.Arg(0), experiments.Names())
			os.Exit(2)
		}
		names = []string{flag.Arg(0)}
	}
	for _, name := range names {
		start := time.Now()
		res, err := reg[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
