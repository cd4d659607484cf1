// Command wiotperf is the repository's benchmark. It streams a seeded
// wearer cohort through one workload's path — in-process fleet with the
// host detector, in-process fleet with the JIT device detector, or the
// authenticated TCP wire — for a fixed time, checks every run's verdict
// digest, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON line. See README.md.
//
//	bash wiotperf/run.sh --workload cohort-host --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSetups is how many cohort set-ups one run makes; setup_s is
// their median.
const defaultSetups = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wiotperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cohort-host, cohort-device or wire-auth")
	seed := fs.Int64("seed", defaultSeed, "cohort seed")
	seconds := fs.Float64("seconds", 20, "length of the timed region, seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "wiotperf: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "wiotperf: --seconds must be positive")
		return 2
	}
	res, err := benchmark(context.Background(), options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		setups:   defaultSetups,
	}, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "wiotperf: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "wiotperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
