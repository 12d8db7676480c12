package main

import (
	"fmt"
	"path/filepath"
)

// bench is one run's launches: every pass launches each program cold, saves
// its translations after its first successful cold launch, and launches it
// warm from that file.
type bench struct {
	progs  []program
	dir    string
	passes []*pass
	// refs holds each program's first successful cold launch, which every
	// later launch of the program must reproduce; files its pcache file
	// ("" until saved).
	refs  []*launchResult
	files []string
	saves []saveResult

	attempted  int
	failures   []error // failed launches
	mismatches []error // determinism violations
}

// pass is one launch of every program cold and warm. The engines are
// dropped; only the measurements are kept.
type pass struct {
	traced     bool
	cold, warm []launchResult
}

func newBench(progs []program, dir string) *bench {
	return &bench{progs: progs, dir: dir,
		refs: make([]*launchResult, len(progs)), files: make([]string, len(progs))}
}

func (b *bench) pass(tr *tracer) {
	ps := &pass{traced: tr != nil}
	b.passes = append(b.passes, ps)
	for i := range b.progs {
		p := &b.progs[i]
		c := launch(p, "", tr)
		b.attempted++
		if c.err != nil {
			b.failures = append(b.failures, c.err)
			continue
		}
		if ref := b.refs[i]; ref == nil {
			b.refs[i] = &c
		} else if c.retired != ref.retired || c.counts != ref.counts {
			b.mismatches = append(b.mismatches, fmt.Errorf("%s: cold launch retired %d, host classes %v; first cold launch %d, %v",
				p.w.Name, c.retired, c.counts, ref.retired, ref.counts))
		}
		e := c.engine
		c.engine = nil
		ps.cold = append(ps.cold, c)
		if b.files[i] == "" {
			path := filepath.Join(b.dir, fmt.Sprintf("%d.pcache", i))
			s, err := save(e, path, tr)
			if err != nil {
				// The warm launch that needed the file fails.
				b.attempted++
				b.failures = append(b.failures, fmt.Errorf("warm launch of %s: save pcache: %w", p.w.Name, err))
				continue
			}
			b.files[i] = path
			b.saves = append(b.saves, s)
		}

		w := launch(p, b.files[i], tr)
		w.engine = nil
		b.attempted++
		if w.err != nil {
			b.failures = append(b.failures, w.err)
			continue
		}
		if ref := b.refs[i]; w.console != ref.console || w.retired != ref.retired {
			b.mismatches = append(b.mismatches, fmt.Errorf("%s: warm launch retired %d, console %q; cold launch %d, %q",
				p.w.Name, w.retired, w.console, ref.retired, ref.console))
		}
		ps.warm = append(ps.warm, w)
	}
}
