package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"sldbt/internal/core"
	"sldbt/internal/engine"
	"sldbt/internal/exp"
	"sldbt/internal/kernel"
	"sldbt/internal/pcache"
	"sldbt/internal/rules"
	"sldbt/internal/smp"
	"sldbt/internal/x86"
)

// knobs is the one engine configuration every workload runs: the rule
// translator at its highest level with same-page reuse, plus every
// deterministic mechanism the engine ships, so all of them are on the
// measured path. MTTCG is left out (see README.md).
var knobs = exp.Knobs{Opt: core.OptScheduling, Reuse: true,
	Chain: true, JC: true, RAS: true, Trace: true, Victim: true}

// timedTranslator is the engine's translator: core.Translator with every
// translation recorded as a span in a traced launch. The embedded pointer
// keeps the optional interfaces the engine looks for (register pinning,
// traces, the config fingerprint).
type timedTranslator struct {
	*core.Translator
	tr     *tracer
	parent int // the run span
}

func (t *timedTranslator) Translate(e *engine.Engine, pc uint32, priv bool) (*engine.TB, error) {
	s := t.tr.begin("core.translate", t.parent)
	defer t.tr.end(s)
	return t.Translator.Translate(e, pc, priv)
}

func (t *timedTranslator) TranslateTrace(e *engine.Engine, plan *engine.TracePlan, priv bool) (*engine.TB, error) {
	s := t.tr.begin("core.translate", t.parent)
	defer t.tr.end(s)
	return t.Translator.TranslateTrace(e, plan, priv)
}

// launchResult is one launch: a fresh engine from construction to guest
// exit.
type launchResult struct {
	name    string        // the program's
	cpu     time.Duration // process CPU time of the launch window
	alloc   uint64        // bytes the Go runtime allocated in the window
	gcs     uint32        // GC cycles that ran in the window
	retired uint64
	counts  [x86.NumClasses]uint64
	stats   engine.Stats
	trans   core.Stats
	console string
	engine  *engine.Engine
	err     error
}

func (r *launchResult) host() uint64 {
	var t uint64
	for _, c := range r.counts {
		t += c
	}
	return t
}

// launch boots p on a fresh engine and runs it to guest exit: cold when
// warmFrom is "", otherwise warm-started from that pcache file. Forced GC
// before the window keeps set-up garbage out of it; every failure, a
// panic included, is returned in err.
func launch(p *program, warmFrom string, tr *tracer) launchResult {
	r := launchResult{name: p.w.Name}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc, gcs := ms.TotalAlloc, ms.NumGC
	if tr != nil {
		tr.launch++ // the save after a cold launch shares its id
	}
	cpu := cpuNow()
	s := tr.begin("launch", -1)
	e, tt, err := boot(p, warmFrom, tr, s)
	tr.closeOpen(s + 1)
	tr.end(s)
	r.cpu = cpuNow() - cpu
	runtime.ReadMemStats(&ms)
	r.alloc, r.gcs = ms.TotalAlloc-alloc, ms.NumGC-gcs

	r.engine = e
	if e != nil {
		r.retired, r.counts, r.stats = e.Retired, e.M.Counts, e.Stats
		r.console = e.Bus.UART().Output()
	}
	if tt != nil {
		r.trans = tt.Stats
	}
	if err == nil {
		err = check(p, e)
	}
	if err != nil {
		kind := "cold"
		if warmFrom != "" {
			kind = "warm"
		}
		r.err = fmt.Errorf("%s launch of %s: %w", kind, p.w.Name, err)
	}
	return r
}

// boot is the launch window's work, each layer call in its own span.
func boot(p *program, warmFrom string, tr *tracer, parent int) (e *engine.Engine, tt *timedTranslator, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	s := tr.begin("engine.new", parent)
	ct := core.New(rules.BaselineRules(), knobs.Opt)
	ct.Reuse = knobs.Reuse
	tt = &timedTranslator{Translator: ct, tr: tr}
	if e, err = engine.NewSMP(tt, kernel.RAMSize, p.cpus); err != nil {
		return nil, tt, err
	}
	e.EnableChaining(knobs.Chain)
	e.EnableJumpCache(knobs.JC)
	e.EnableRAS(knobs.RAS)
	e.EnableTracing(knobs.Trace)
	e.EnableVictimTLB(knobs.Victim)
	p.img.Configure(e.Bus)
	err = e.LoadImage(p.img.Origin, p.img.Data)
	tr.end(s)
	if err != nil {
		return e, tt, err
	}

	if warmFrom == "" {
		// Capture retired regions too, so the export after the run covers
		// everything the launch translated.
		e.EnablePersistCapture(true)
	} else {
		s = tr.begin("pcache.load", parent)
		regs, err := pcache.LoadCache(warmFrom, e.ConfigFingerprint())
		tr.end(s)
		if err != nil {
			return e, tt, err
		}
		s = tr.begin("engine.install_warm", parent)
		e.InstallWarmRegions(regs)
		tr.end(s)
	}

	s = tr.begin("engine.run", parent)
	tt.parent = s
	code, err := e.Run(p.budget)
	tr.end(s)
	if err != nil {
		return e, tt, err
	}
	if code != 0 {
		return e, tt, fmt.Errorf("guest exit %#x", code)
	}
	return e, tt, nil
}

// check compares a finished launch with its oracle: the interpreter's
// console at 1 vCPU, smp.CompareState (console and every vCPU's
// registers) at 2.
func check(p *program, e *engine.Engine) error {
	if p.oracle != nil {
		return smp.CompareState(e, p.oracle, false)
	}
	if got := e.Bus.UART().Output(); got != p.want {
		return fmt.Errorf("console diverges from the oracle:\n got  %q\n want %q", got, p.want)
	}
	return nil
}

// saveResult is one pcache.SaveCache call.
type saveResult struct {
	cpu     time.Duration
	bytes   int64
	regions int
}

// save writes the regions a cold launch translated to path, replacing any
// earlier file (SaveCache merges into an existing one).
func save(e *engine.Engine, path string, tr *tracer) (saveResult, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return saveResult{}, err
	}
	regs := e.ExportRegions()
	t := cpuNow()
	s := tr.begin("pcache.save", -1)
	err := pcache.SaveCache(path, e.ConfigFingerprint(), regs)
	tr.end(s)
	r := saveResult{cpu: cpuNow() - t, regions: len(regs)}
	if err != nil {
		return r, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return r, err
	}
	r.bytes = fi.Size()
	return r, nil
}
