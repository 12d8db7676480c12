package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func startBench(t *testing.T, n int) *bench {
	t.Helper()
	ps, _, err := setup("start", 1)
	if err != nil {
		t.Fatal(err)
	}
	return newBench(ps[:n], t.TempDir())
}

// TestWrongConsoleIsOneFailedLaunch feeds one program a wrong expected
// console: its cold launch fails, its warm launch (which needs the cold
// launch's file) is not attempted, and the others still run.
func TestWrongConsoleIsOneFailedLaunch(t *testing.T) {
	b := startBench(t, 3)
	b.progs[1].want = "wrong\n"
	b.pass(nil)
	if len(b.failures) != 1 {
		t.Fatalf("%d failed launches, want 1: %v", len(b.failures), b.failures)
	}
	if want := 2*len(b.progs) - 1; b.attempted != want {
		t.Fatalf("%d launches attempted, want %d", b.attempted, want)
	}
	if len(b.mismatches) != 0 {
		t.Fatal(b.mismatches)
	}
}

// TestDeterminismMismatchFails checks that a launch whose counts differ
// from the program's first cold launch is reported.
func TestDeterminismMismatchFails(t *testing.T) {
	b := startBench(t, 1)
	b.pass(nil)
	if len(b.failures)+len(b.mismatches) != 0 {
		t.Fatal(b.failures, b.mismatches)
	}
	b.refs[0].retired++
	b.pass(nil)
	if len(b.mismatches) != 2 { // the cold and the warm launch
		t.Fatalf("%d mismatches, want 2: %v", len(b.mismatches), b.mismatches)
	}
}

// TestTraceAddsUp runs an untraced and a traced pass and checks the trace:
// every launch has its layer spans, no span's parts exceed it, and the
// metrics are the ones BENCHMARK.json declares.
func TestTraceAddsUp(t *testing.T) {
	b := startBench(t, 2)
	tr := newTracer()
	b.pass(nil)
	b.pass(tr)
	if len(b.failures)+len(b.mismatches) != 0 {
		t.Fatal(b.failures, b.mismatches)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	ls := tr.spanLaunches()
	if len(ls) != 4 {
		t.Fatalf("%d traced launches, want 4", len(ls))
	}
	for i, l := range ls {
		// A warm launch installs every region from the file.
		if l.warm != (i%2 == 1) || l.construct == 0 || (l.translates == 0) != l.warm || (l.load == 0) == l.warm ||
			l.construct+l.load+l.install+l.translate > l.cpu {
			t.Fatalf("launch %d: %+v", i, l)
		}
	}

	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		var g, w []string
		for k, m := range got {
			g = append(g, k+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.Name+" "+m.Unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Fatalf("metrics\n got  %v\n want %v", g, w)
		}
	}
	e2e := b.endToEnd(nil)
	for k, m := range e2e {
		if m.Value <= 0 && k != "setup_s" {
			t.Errorf("%s = %v", k, m.Value)
		}
	}
	same(e2e, spec.EndToEnd)
	same(b.layerMetrics(tr, nil), spec.PerLayer)
}

func TestTraceCheckCatchesOverlongParts(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "launch", CPUStart: 0, CPUEnd: 10, WallStart: 0, WallEnd: 10},
		{ID: 1, Parent: 0, Name: "engine.new", CPUStart: 0, CPUEnd: 6, WallStart: 0, WallEnd: 6},
		{ID: 2, Parent: 0, Name: "engine.run", CPUStart: 6, CPUEnd: 12, WallStart: 6, WallEnd: 9},
	}}
	if tr.check() == nil {
		t.Fatal("parts longer than the launch passed the check")
	}
	tr.spans[2].CPUEnd = 10
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Fatalf("tail = %v at p%v, want 30 at p75", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 5 {
		t.Fatalf("tail of 5 samples = %v, want the maximum", v)
	}
}
