package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"sldbt/internal/ghw"
	"sldbt/internal/interp"
	"sldbt/internal/kernel"
	"sldbt/internal/smp"
	"sldbt/internal/workloads"
)

// Workload names. Why each exists is recorded in BENCHMARK.json.
var workloadNames = []string{"spec", "sys", "start"}

// startPrograms is how many programs the start workload generates per seed.
const startPrograms = 6

// program is one guest program of a workload, with its oracle result.
type program struct {
	w      *workloads.Workload
	cpus   int
	budget uint64
	img    *workloads.Image
	// want is the oracle's console; for 2-vCPU programs oracle also holds
	// the final machine state smp.CompareState checks against.
	want   string
	oracle *smp.Oracle
	// checksum is the last console line, which the start generator
	// computed natively ("" for the fixed workloads, which the oracle
	// alone checks).
	checksum string
}

// setupStats is what one set-up took, by layer, on the process CPU clock.
type setupStats struct {
	total       time.Duration
	prepare     time.Duration // all workloads.(*Workload).Prepare calls
	prepares    int
	oracle      time.Duration // all interp.(*Interp).Run and smp.(*Oracle).Run calls
	oracleInsts uint64
}

// programList returns a workload's programs, each with its vCPU count,
// before any image is built. The seed fixes the launch order of the fixed
// workloads and generates the start programs.
func programList(name string, seed uint64) ([]program, error) {
	var ps []program
	add := func(n string, cpus int) error {
		w, ok := workloads.ByName(n)
		if !ok {
			return fmt.Errorf("no workload %q", n)
		}
		ps = append(ps, program{w: w, cpus: cpus})
		return nil
	}
	switch name {
	case "spec":
		for _, w := range workloads.SpecWorkloads() {
			ps = append(ps, program{w: w, cpus: 1})
		}
	case "sys":
		for _, n := range []string{"memcached", "sqlite", "fileio", "untar", "cpu-prime", "net-server"} {
			if err := add(n, 1); err != nil {
				return nil, err
			}
		}
		for _, n := range []string{"smp-spinlock", "smp-worksteal", "smp-ring"} {
			if err := add(n, 2); err != nil {
				return nil, err
			}
		}
	case "start":
		for k := 0; k < startPrograms; k++ {
			sp := genStart(seed, k)
			ps = append(ps, program{
				w:        &workloads.Workload{Name: sp.name, GuestSrc: sp.src, Budget: startBudget},
				cpus:     1,
				checksum: fmt.Sprintf("%08x\n", sp.checksum),
			})
		}
		return ps, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps, nil
}

// setup builds the workload's programs from the seed: generates the start
// programs, builds every image once and runs every program once on the
// oracle. It is everything a run does before its first launch.
func setup(name string, seed uint64) ([]program, setupStats, error) {
	var st setupStats
	runtime.GC()
	t0 := cpuNow()
	ps, err := programList(name, seed)
	if err != nil {
		return nil, st, err
	}
	for i := range ps {
		p := &ps[i]
		p.budget = 4 * p.w.Budget // the experiment harness's headroom
		t := cpuNow()
		if p.img, err = p.w.Prepare(); err != nil {
			return nil, st, err
		}
		st.prepare += cpuNow() - t
		st.prepares++

		bus := ghw.NewBus(kernel.RAMSize)
		p.img.Configure(bus)
		if err := bus.LoadImage(p.img.Origin, p.img.Data); err != nil {
			return nil, st, fmt.Errorf("%s: %w", p.w.Name, err)
		}
		var code uint32
		t = cpuNow()
		if p.cpus == 1 {
			ip := interp.New(bus)
			code, err = ip.Run(p.budget)
			st.oracleInsts += ip.Stats.Total
		} else {
			p.oracle = smp.NewOracle(bus, p.cpus)
			code, err = p.oracle.Run(p.budget)
			st.oracleInsts += p.oracle.Retired()
		}
		st.oracle += cpuNow() - t
		if err != nil {
			return nil, st, fmt.Errorf("%s on the oracle: %w", p.w.Name, err)
		}
		if code != 0 {
			return nil, st, fmt.Errorf("%s on the oracle: exit %#x", p.w.Name, code)
		}
		p.want = bus.UART().Output()
		if !strings.HasSuffix(p.want, p.checksum) {
			return nil, st, fmt.Errorf("%s: oracle printed %q, generator computed checksum %q", p.w.Name, p.want, p.checksum)
		}
	}
	st.total = cpuNow() - t0
	return ps, st, nil
}
