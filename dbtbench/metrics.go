package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sldbt/internal/x86"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs with at least ten samples beyond
// it, and that percentile; with ten samples or fewer it is the maximum.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	if k < 0 {
		k = len(s) - 1
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// launchMS lists, program by program, the CPU times in ms of the cold or
// the warm launches of the traced or the untraced passes.
func (b *bench) launchMS(traced, warm bool) map[string][]float64 {
	by := map[string][]float64{}
	for _, ps := range b.passes {
		if ps.traced != traced {
			continue
		}
		ls := ps.cold
		if warm {
			ls = ps.warm
		}
		for i := range ls {
			by[ls[i].name] = append(by[ls[i].name], ms(ls[i].cpu))
		}
	}
	return by
}

// programMedians is each program's median launch time in ms. A workload's
// programs differ in length, so per-program medians are steadier than one
// median over all launches, whose middle sample can jump between programs.
func programMedians(by map[string][]float64) []float64 {
	var meds []float64
	for _, xs := range by {
		meds = append(meds, median(xs))
	}
	return meds
}

// pooled is every launch time of by in one list.
func pooled(by map[string][]float64) []float64 {
	var all []float64
	for _, xs := range by {
		all = append(all, xs...)
	}
	return all
}

// perPass is the median over the traced or the untraced passes of f.
func (b *bench) perPass(traced bool, f func(*pass) float64) float64 {
	var xs []float64
	for _, ps := range b.passes {
		if ps.traced == traced {
			xs = append(xs, f(ps))
		}
	}
	return median(xs)
}

// launchCPUSum is a pass's CPU time in launch windows, cold and warm.
func launchCPUSum(ps *pass) time.Duration {
	var t time.Duration
	for _, ls := range [][]launchResult{ps.cold, ps.warm} {
		for i := range ls {
			t += ls[i].cpu
		}
	}
	return t
}

func setupMedian(setups []setupStats) float64 {
	var xs []float64
	for _, s := range setups {
		xs = append(xs, s.total.Seconds())
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics from an untraced run.
func (b *bench) endToEnd(setups []setupStats) map[string]metric {
	if len(b.passes) == 0 || len(b.passes[0].cold) == 0 {
		return nil
	}
	var retired, host float64
	for i := range b.passes[0].cold {
		retired += float64(b.passes[0].cold[i].retired)
		host += float64(b.passes[0].cold[i].host())
	}
	cold, warm := programMedians(b.launchMS(false, false)), programMedians(b.launchMS(false, true))
	var coldSum float64
	for _, c := range cold {
		coldSum += c
	}
	alloc := b.perPass(false, func(ps *pass) float64 {
		var a uint64
		for _, ls := range [][]launchResult{ps.cold, ps.warm} {
			for i := range ls {
				a += ls[i].alloc
			}
		}
		return float64(a) / 1e6
	})
	fmt.Printf("dbtbench: %d passes over %d programs, %.0f guest instructions per pass\n", len(b.passes), len(b.progs), retired)
	return map[string]metric{
		"guest_mips":     {ratio(retired, coldSum) / 1e3, "Minst/cpu_s"},
		"host_per_guest": {ratio(host, retired), "inst/inst"},
		"cold_launch_ms": {geomean(cold), "ms"},
		"warm_launch_ms": {geomean(warm), "ms"},
		"setup_s":        {setupMedian(setups), "s"},
		"alloc_mb":       {alloc, "MB"},
	}
}

// spanLaunch is one traced launch as its spans record it.
type spanLaunch struct {
	warm                                           bool
	cpu, wall, construct, load, install, translate time.Duration
	translates                                     int
}

func (a *spanLaunch) add(l *spanLaunch) {
	a.cpu += l.cpu
	a.wall += l.wall
	a.construct += l.construct
	a.load += l.load
	a.install += l.install
	a.translate += l.translate
	a.translates += l.translates
}

// spanLaunches groups the spans by launch.
func (t *tracer) spanLaunches() []*spanLaunch {
	byID := map[int]*spanLaunch{}
	var order []*spanLaunch
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == "launch" {
			l := &spanLaunch{cpu: s.cpu(), wall: s.wall()}
			byID[s.Launch] = l
			order = append(order, l)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		l := byID[s.Launch]
		switch s.Name {
		case "engine.new":
			l.construct += s.cpu()
		case "pcache.load":
			l.warm = true
			l.load += s.cpu()
		case "engine.install_warm":
			l.install += s.cpu()
		case "core.translate":
			l.translate += s.cpu()
			l.translates++
		}
	}
	return order
}

// counters sums the deterministic counters of the cold launches of the
// traced passes.
type counters struct {
	passes                              float64
	retired                             float64
	classes                             [x86.NumClasses]float64
	ruleHits, fallbacks, syncSaves      float64
	dispatches, helpers, traceExec      float64
	chained, direct, chainBreaks        float64
	jcHits, rasHits, jcMisses, jcBreaks float64
	slowPath, victimHits, io, irqs      float64
	switches, exclusives, strexFails    float64
	warmHits, warmRejects, gcs, hostAll float64
}

func (b *bench) counters() counters {
	var c counters
	for _, ps := range b.passes {
		if !ps.traced {
			continue
		}
		c.passes++
		for i := range ps.cold {
			l := &ps.cold[i]
			c.retired += float64(l.retired)
			for k, n := range l.counts {
				c.classes[k] += float64(n)
			}
			c.ruleHits += float64(l.trans.RuleHits)
			c.fallbacks += float64(l.trans.Fallbacks)
			c.syncSaves += float64(l.trans.SyncSaves)
			s := &l.stats
			c.dispatches += float64(s.Dispatches)
			c.helpers += float64(s.HelperCalls)
			c.traceExec += float64(s.TraceExec)
			c.chained += float64(s.ChainedExits)
			c.direct += float64(s.DirectDispatches)
			c.chainBreaks += float64(s.ChainBreaks)
			c.jcHits += float64(s.JCHits)
			c.rasHits += float64(s.RASHits)
			c.jcMisses += float64(s.JCMisses)
			c.jcBreaks += float64(s.JCBreaks)
			c.slowPath += float64(s.MMUSlowPath + s.TLBVictimHits)
			c.victimHits += float64(s.TLBVictimHits)
			c.io += float64(s.IOAccesses)
			c.irqs += float64(s.IRQs)
			c.switches += float64(s.Switches)
			c.exclusives += float64(s.Exclusives)
			c.strexFails += float64(s.StrexFailures)
		}
		for _, ls := range [][]launchResult{ps.cold, ps.warm} {
			for i := range ls {
				c.gcs += float64(ls[i].gcs)
				c.hostAll += float64(ls[i].host())
			}
		}
		for i := range ps.warm {
			c.warmHits += float64(ps.warm[i].stats.WarmHits)
			c.warmRejects += float64(ps.warm[i].stats.WarmRejects)
		}
	}
	return c
}

// layerMetrics computes the per-layer metrics of a traced run: times from
// the spans of the traced passes, counts from their cold launches, set-up
// layers from every set-up, and the tracing overhead and launch tails from
// the untraced passes run alongside.
func (b *bench) layerMetrics(tr *tracer, setups []setupStats) map[string]metric {
	c := b.counters()
	if c.retired == 0 {
		return nil
	}
	var all, cold, warm spanLaunch
	var nAll, nWarm float64
	for _, l := range tr.spanLaunches() {
		all.add(l)
		nAll++
		if l.warm {
			warm.add(l)
			nWarm++
		} else {
			cold.add(l)
		}
	}
	var prep, orc time.Duration
	var preps int
	var orcInsts float64
	for _, s := range setups {
		prep += s.prepare
		preps += s.prepares
		orc += s.oracle
		orcInsts += float64(s.oracleInsts)
	}
	var saveCPU time.Duration
	var saveBytes, saveRegions float64
	for _, s := range b.saves {
		saveCPU += s.cpu
		saveBytes += float64(s.bytes)
		saveRegions += float64(s.regions)
	}
	kinst := c.retired / 1000
	exec := all.cpu - all.construct - all.load - all.install - all.translate
	overhead := ratio(b.perPass(true, func(ps *pass) float64 { return launchCPUSum(ps).Seconds() }),
		b.perPass(false, func(ps *pass) float64 { return launchCPUSum(ps).Seconds() })) - 1
	coldMS := pooled(b.launchMS(false, false))
	coldTail, coldPct := tail(coldMS)
	warmTail, warmPct := tail(pooled(b.launchMS(false, true)))
	samples := len(coldMS)
	fmt.Printf("dbtbench: launch tails over %d untraced launches each: cold p%.1f, warm p%.1f\n", samples, coldPct, warmPct)

	m := map[string]metric{
		"workloads.prepare_ms":          {ratio(ms(prep), float64(preps)), "ms"},
		"interp.oracle_mips":            {ratio(orcInsts, orc.Seconds()) / 1e6, "Minst/cpu_s"},
		"engine.new_ms":                 {ratio(ms(all.construct), nAll), "ms"},
		"core.translate_us":             {ratio(float64(all.translate)/1e3, float64(all.translates)), "us"},
		"core.regions":                  {ratio(float64(cold.translates), c.passes), "count"},
		"core.translate_share":          {ratio(float64(cold.translate), float64(cold.cpu)), "ratio"},
		"core.rule_hit_ratio":           {ratio(c.ruleHits, c.ruleHits+c.fallbacks), "ratio"},
		"core.sync_saves_per_region":    {ratio(c.syncSaves, float64(cold.translates)), "count"},
		"x86.ns_per_host_inst":          {ratio(float64(exec), c.hostAll), "ns"},
		"engine.dispatches_per_kinst":   {ratio(c.dispatches, kinst), "count"},
		"engine.chain_rate":             {ratio(c.chained, c.chained+c.direct+c.chainBreaks), "ratio"},
		"engine.jc_rate":                {ratio(c.jcHits+c.rasHits, c.jcHits+c.rasHits+c.jcMisses+c.jcBreaks), "ratio"},
		"engine.trace_exec_ratio":       {ratio(c.traceExec, c.retired), "ratio"},
		"engine.helper_calls_per_kinst": {ratio(c.helpers, kinst), "count"},
		"mmu.slowpath_per_kinst":        {ratio(c.slowPath, kinst), "count"},
		"mmu.victim_hit_ratio":          {ratio(c.victimHits, c.slowPath), "ratio"},
		"ghw.io_per_kinst":              {ratio(c.io, kinst), "count"},
		"ghw.irqs_per_kinst":            {ratio(c.irqs, kinst), "count"},
		"engine.switches":               {ratio(c.switches, c.passes), "count"},
		"engine.exclusives":             {ratio(c.exclusives, c.passes), "count"},
		"engine.strex_failures":         {ratio(c.strexFails, c.passes), "count"},
		"pcache.load_ms":                {ratio(ms(warm.load), nWarm), "ms"},
		"pcache.kb_per_region":          {ratio(saveBytes/1024, saveRegions), "KiB"},
		"pcache.save_ms":                {ratio(ms(saveCPU), float64(len(b.saves))), "ms"},
		"engine.warm_hits":              {ratio(c.warmHits, c.passes), "count"},
		"engine.warm_rejects":           {ratio(c.warmRejects, c.passes), "count"},
		"runtime.gc_cycles":             {ratio(c.gcs, c.passes), "count"},
		"runtime.wall_over_cpu":         {ratio(float64(all.wall), float64(all.cpu)), "ratio"},
		"bench.trace_overhead":          {overhead, "ratio"},
		"bench.cold_launch_tail_ms":     {coldTail, "ms"},
		"bench.warm_launch_tail_ms":     {warmTail, "ms"},
		"bench.tail_samples":            {float64(samples), "count"},
	}
	for k := x86.Class(0); k < x86.NumClasses; k++ {
		m["x86.host_per_guest."+k.String()] = metric{ratio(c.classes[k], c.retired), "inst/inst"}
	}
	return m
}
