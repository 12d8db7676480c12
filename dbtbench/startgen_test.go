package main

import "testing"

func TestGenStartIsSeeded(t *testing.T) {
	a, b := genStart(7, 3), genStart(7, 3)
	if a.src != b.src || a.checksum != b.checksum {
		t.Fatal("the same seed gave different programs")
	}
	if c := genStart(8, 3); c.src == a.src {
		t.Fatal("different seeds gave the same program")
	}
	if c := genStart(7, 4); c.src == a.src {
		t.Fatal("different programs of one seed are the same")
	}
}

// TestGenStartProgramsRun assembles every program of a few seeds, runs it
// on the interpreter and checks that it exits 0 printing the checksum the
// generator computed; setup fails otherwise.
func TestGenStartProgramsRun(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		ps, _, err := setup("start", seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(ps) != startPrograms {
			t.Fatalf("seed %d: %d programs, want %d", seed, len(ps), startPrograms)
		}
	}
}
