package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
)

// The start workload's guest programs look like boot code and cold kernel
// paths: hundreds of distinct small blocks, each executed only a few times,
// so a launch spends its time translating (cold) or loading translations
// (warm) rather than executing. Every block is generated from the seed and
// is different; the generator also runs each instruction natively, so it
// knows the checksum the program must print.
const (
	startBlocks = 280        // distinct main-chain blocks per program
	startReps   = 4          // times the chain runs
	startBuf    = 0x00500000 // 1 KiB scratch buffer in user RAM
	startBudget = 1_000_000  // guest instructions, far above what a program retires
)

// startRegs are the registers generated code computes in; r4 holds the
// checksum, r8 the buffer base and r9 the repetition counter.
var startRegs = [...]int{0, 1, 2, 3, 5, 6, 7}

// genState is the native model of the registers, flags and buffer that
// generated instructions touch.
type genState struct {
	r    [16]uint32
	buf  [256]uint32
	z, c bool
}

// genInst is one guest instruction with its native effect.
type genInst struct {
	text string
	eval func(s *genState)
}

// startProgram is one generated guest program.
type startProgram struct {
	name     string
	src      string
	checksum uint32 // what the program prints, computed natively
}

// genStart generates program k of a seed. The same (seed, k) always gives
// byte-identical source.
func genStart(seed uint64, k int) startProgram {
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	g := &gen{rng: rng}
	var sb strings.Builder
	var st genState

	sb.WriteString("user_entry:\n")
	for _, r := range startRegs {
		v := rng.Uint32()
		st.r[r] = v
		fmt.Fprintf(&sb, "\tldr r%d, =%#08x\n", r, v)
	}
	fmt.Fprintf(&sb, "\tmov r4, #0\n\tldr r8, =%#x\n\tmov r9, #%d\n\tb blk_0\n\t.pool\n", startBuf, startReps)

	// Main chain blk_0..blk_{n-1}; a block may branch to its own side
	// block, which rejoins the chain at the next block.
	type block struct {
		body []genInst
		cmp  *genInst // side-branch compare, nil for a plain block
		side []genInst
	}
	// Block lengths cycle through 1-4 operations and every fourth block
	// has a side block, so every program has the same shape and programs
	// of different seeds cost about the same to translate and load.
	blocks := make([]block, startBlocks)
	for i := range blocks {
		b := &blocks[i]
		for n := 1 + i%4; n > 0; n-- {
			b.body = append(b.body, g.inst()...)
		}
		b.body = append(b.body, g.fold())
		if i%4 == 2 {
			c := g.cmpImm()
			b.cmp = &c
			b.side = append(g.inst(), g.fold())
		}
	}
	for i, b := range blocks {
		fmt.Fprintf(&sb, "blk_%d:\n", i)
		for _, in := range b.body {
			fmt.Fprintf(&sb, "\t%s\n", in.text)
		}
		if b.cmp != nil {
			fmt.Fprintf(&sb, "\t%s\n\tbhs side_%d\n", b.cmp.text, i)
		}
		fmt.Fprintf(&sb, "\tb blk_%d\n", i+1)
	}
	fmt.Fprintf(&sb, "blk_%d:\n\tsubs r9, r9, #1\n\tbne blk_0\n", startBlocks)
	sb.WriteString(`	mov r0, r4
	mov r7, #3          ; puthex
	svc #0
	mov r0, #0x0a
	mov r7, #1          ; putc
	svc #0
	mov r0, #0
	mov r7, #0          ; exit
	svc #0
`)
	for i, b := range blocks {
		if b.cmp == nil {
			continue
		}
		fmt.Fprintf(&sb, "side_%d:\n", i)
		for _, in := range b.side {
			fmt.Fprintf(&sb, "\t%s\n", in.text)
		}
		fmt.Fprintf(&sb, "\tb blk_%d\n", i+1)
	}

	for rep := 0; rep < startReps; rep++ {
		for _, b := range blocks {
			for _, in := range b.body {
				in.eval(&st)
			}
			if b.cmp != nil {
				b.cmp.eval(&st)
				if st.c { // bhs
					for _, in := range b.side {
						in.eval(&st)
					}
				}
			}
		}
	}
	return startProgram{name: fmt.Sprintf("start-%d", k), src: sb.String(), checksum: st.r[4]}
}

type gen struct{ rng *rand.Rand }

func (g *gen) reg() int { return startRegs[g.rng.IntN(len(startRegs))] }

// inst returns one generated operation: one instruction, or a compare and
// a conditionally executed instruction.
func (g *gen) inst() []genInst {
	switch g.rng.IntN(8) {
	case 0, 1:
		return []genInst{g.aluImm("", nil)}
	case 2, 3:
		return []genInst{g.aluShift()}
	case 4:
		d, n, m := g.reg(), g.reg(), g.reg()
		for d == n || d == m {
			d = g.reg()
		}
		return []genInst{{fmt.Sprintf("mul r%d, r%d, r%d", d, n, m), func(s *genState) { s.r[d] = s.r[n] * s.r[m] }}}
	case 5:
		d, w := g.reg(), g.rng.IntN(256)
		return []genInst{{fmt.Sprintf("ldr r%d, [r8, #%d]", d, 4*w), func(s *genState) { s.r[d] = s.buf[w] }}}
	case 6:
		n, w := g.reg(), g.rng.IntN(256)
		return []genInst{{fmt.Sprintf("str r%d, [r8, #%d]", n, 4*w), func(s *genState) { s.buf[w] = s.r[n] }}}
	default:
		cond, pass := "hs", func(s *genState) bool { return s.c }
		switch g.rng.IntN(4) {
		case 1:
			cond, pass = "lo", func(s *genState) bool { return !s.c }
		case 2:
			cond, pass = "eq", func(s *genState) bool { return s.z }
		case 3:
			cond, pass = "ne", func(s *genState) bool { return !s.z }
		}
		return []genInst{g.cmpImm(), g.aluImm(cond, pass)}
	}
}

// aluOps are the data-processing operations generated code uses. BIC is
// left out, and RSB takes only an immediate: the rule translator panics
// ("core: flags lost at save site") when either form follows a flag-setting
// compare and a flag-clobbering instruction in a block whose flags a later
// compare redefines, e.g. "cmp r6, #252; sub r0, r6, r2; bic r1, r5, #11;
// cmp r1, #199". A launch that hits it fails.
var aluOps = [...]struct {
	name string
	f    func(a, b uint32) uint32
}{
	{"add", func(a, b uint32) uint32 { return a + b }},
	{"sub", func(a, b uint32) uint32 { return a - b }},
	{"eor", func(a, b uint32) uint32 { return a ^ b }},
	{"orr", func(a, b uint32) uint32 { return a | b }},
	{"and", func(a, b uint32) uint32 { return a & b }},
	{"rsb", func(a, b uint32) uint32 { return b - a }},
}

// aluImm is "op{cond} rd, rn, #imm8"; pass is nil for an unconditional one.
func (g *gen) aluImm(cond string, pass func(*genState) bool) genInst {
	op := aluOps[g.rng.IntN(len(aluOps))]
	d, n, imm := g.reg(), g.reg(), uint32(g.rng.IntN(256))
	return genInst{fmt.Sprintf("%s%s r%d, r%d, #%d", op.name, cond, d, n, imm), func(s *genState) {
		if pass == nil || pass(s) {
			s.r[d] = op.f(s.r[n], imm)
		}
	}}
}

// aluShift is "op rd, rn, rm, shift #k" with an immediate shift.
func (g *gen) aluShift() genInst {
	op := aluOps[g.rng.IntN(4)] // add, sub, eor, orr
	d, n, m, k := g.reg(), g.reg(), g.reg(), 1+g.rng.IntN(31)
	shifts := [...]struct {
		name string
		f    func(uint32) uint32
	}{
		{"lsl", func(v uint32) uint32 { return v << k }},
		{"lsr", func(v uint32) uint32 { return v >> k }},
		{"ror", func(v uint32) uint32 { return bits.RotateLeft32(v, -k) }},
	}
	sh := shifts[g.rng.IntN(len(shifts))]
	return genInst{fmt.Sprintf("%s r%d, r%d, r%d, %s #%d", op.name, d, n, m, sh.name, k), func(s *genState) {
		s.r[d] = op.f(s.r[n], sh.f(s.r[m]))
	}}
}

// cmpImm is "cmp rn, #imm8"; only Z and C are modelled, so generated code
// uses only the eq/ne/hs/lo conditions.
func (g *gen) cmpImm() genInst {
	n, imm := g.reg(), uint32(g.rng.IntN(256))
	return genInst{fmt.Sprintf("cmp r%d, #%d", n, imm), func(s *genState) {
		s.z, s.c = s.r[n] == imm, s.r[n] >= imm
	}}
}

// fold mixes a register into the checksum, ending a block.
func (g *gen) fold() genInst {
	m, k := g.reg(), 1+g.rng.IntN(31)
	return genInst{fmt.Sprintf("add r4, r4, r%d, ror #%d", m, k), func(s *genState) {
		s.r[4] += bits.RotateLeft32(s.r[m], -k)
	}}
}
