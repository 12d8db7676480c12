// Command dbtbench is the repository's benchmark. It launches a workload's
// guest programs on fresh engines, from construction to guest exit, checks
// every launch against the interpreter oracle, and prints end-to-end
// metrics (or, with -trace 1, per-layer metrics from a traced run) as one
// JSON object on the last line of standard output. Times are process CPU
// time. Run it from the repository root:
//
//	bash dbtbench/run.sh --workload spec --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json lists the workloads and metrics and records why each was
// chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// workDir holds the run's pcache files and its trace, inside the checkout.
const workDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := flag.Uint64("seed", 1, "input seed: launch order of the fixed workloads, the start programs")
	seconds := flag.Int("seconds", 10, "how long to launch programs, in wall seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtbench:", err)
		os.Exit(1)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed uint64, dur time.Duration, traced bool) (*result, error) {
	fmt.Printf("dbtbench: workload=%s seed=%d seconds=%v trace=%t\n", name, seed, dur.Seconds(), traced)
	var setups []setupStats
	var progs []program
	for i := 0; i < setupReps; i++ {
		progs = nil // every set-up starts from the same live heap
		ps, st, err := setup(name, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		progs, setups = ps, append(setups, st)
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(progs, dir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// A traced run alternates untraced and traced passes over the same
	// launches; the difference between them is the tracing overhead.
	start := time.Now()
	for i := 0; i == 0 || (traced && i == 1) || time.Since(start) < dur; i++ {
		if traced && i%2 == 1 {
			b.pass(tr)
		} else {
			b.pass(nil)
		}
	}

	res := &result{Attempted: b.attempted, Failed: len(b.failures)}
	for _, err := range b.failures {
		fmt.Fprintln(os.Stderr, "dbtbench: failed", err)
	}
	for _, err := range b.mismatches {
		fmt.Fprintln(os.Stderr, "dbtbench: determinism:", err)
	}
	res.Correct = len(b.failures) == 0 && len(b.mismatches) == 0
	if traced {
		if err := tr.check(); err != nil {
			fmt.Fprintln(os.Stderr, "dbtbench:", err)
			res.Correct = false
		}
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("dbtbench: %d spans written to %s\n", len(tr.spans), path)
		res.Metrics = b.layerMetrics(tr, setups)
	} else {
		res.Metrics = b.endToEnd(setups)
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("no launch succeeded")
	}
	return res, nil
}
