package cpu

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/sim"
)

// Tests for the threaded-code tier (tcode.go). The contract under test is
// bit-identity: with the tier on, every architecturally observable output —
// registers, flags, memory, PC at faults, error values, retirement count,
// and the virtual clock — must match a pure-interpreter run instruction for
// instruction.

// tcodePasses is enough Run passes to push every leader past blockHeatMin
// and then re-execute the compiled blocks several times.
const tcodePasses = 3 * blockHeatMin

// newTCodeMachine builds a fresh machine with image placed at 0x4000.
func newTCodeMachine(t *testing.T, image pal.Image, compile bool) (*CPU, *chipset.Chipset, mem.Region) {
	t.Helper()
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	if err := cs.Memory().WriteRaw(0x4000, image.Bytes); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	c.SetBlockCompile(compile)
	return c, cs, mem.Region{Base: 0x4000, Size: image.Len()}
}

// runPasses executes image `passes` times on one machine; heat counters and
// compiled blocks accumulate across passes exactly as they do across jobs
// on a palsvc machine. Each pass must halt cleanly.
func runPasses(t *testing.T, image pal.Image, compile bool, passes int) (*CPU, *chipset.Chipset) {
	t.Helper()
	c, cs, region := newTCodeMachine(t, image, compile)
	for i := 0; i < passes; i++ {
		c.EnterRegion(region, image.Entry)
		if reason, err := c.Run(0); err != nil || reason != StopHalt {
			t.Fatalf("pass %d (compile=%v): %v %v", i, compile, reason, err)
		}
	}
	return c, cs
}

// sameRun compares every observable of two finished runs.
func sameRun(t *testing.T, on, off *CPU, csOn, csOff *chipset.Chipset) {
	t.Helper()
	sameArchState(t, on, off, csOn, csOff)
	if on.Retired != off.Retired {
		t.Fatalf("retired diverge: compiled %d, interpreted %d", on.Retired, off.Retired)
	}
	if on.Clock().Now() != off.Clock().Now() {
		t.Fatalf("virtual clocks diverge: compiled %v, interpreted %v",
			on.Clock().Now(), off.Clock().Now())
	}
	if on.PC != off.PC {
		t.Fatalf("PC diverges: compiled %d, interpreted %d", on.PC, off.PC)
	}
}

// TestBlockCompileDifferentialHotLoop: the canonical case — a hot loop that
// compiles (cmp+jnz fuses) and then re-executes from the block cache many
// times must end bit-identical to pure interpretation.
func TestBlockCompileDifferentialHotLoop(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 25
	loop:	addi	r0, 1
		add	r2, r0
		cmp	r0, r1
		jnz	loop
		halt
	`)
	on, csOn := runPasses(t, image, true, tcodePasses)
	off, csOff := runPasses(t, image, false, tcodePasses)
	sameRun(t, on, off, csOn, csOff)

	st := on.TCodeStatsSnapshot()
	if st.Compiled == 0 || st.Execs == 0 || st.Instrs == 0 {
		t.Fatalf("tier never engaged: %+v", st)
	}
	if off.TCodeStatsSnapshot().Execs != 0 {
		t.Fatal("compile-off machine executed compiled blocks")
	}
}

// TestBlockCompileDifferentialFusionShapes covers every fusion rule — the
// load+ALU pair, pop/pop, pop/push, and cmp+branch — plus the lookahead
// that reserves a cmp for the branch behind it.
func TestBlockCompileDifferentialFusionShapes(t *testing.T) {
	src := `
		ldi	r0, 0
		ldi	r1, 12
	loop:	ldi	r2, v
		load	r3, [r2]
		addi	r3, 3
		store	r3, [r2]
		push	r3
		push	r0
		pop	r4
		pop	r5
		push	r4
		pop	r6
		load	r3, [r2]
		cmp	r3, r1
		addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	v:	.word 5
		.space	64	; stack: sp starts at the region top
	`
	image := pal.MustBuild(src)
	on, csOn := runPasses(t, image, true, tcodePasses)
	off, csOff := runPasses(t, image, false, tcodePasses)
	sameRun(t, on, off, csOn, csOff)
}

// TestBlockCompileFaultMidBlock: a fault raised from inside a compiled
// block must report the same error, leave PC on the faulting instruction,
// and charge exactly the retired instructions (the faulting one included),
// matching the interpreter's charge-before-execute contract.
func TestBlockCompileFaultMidBlock(t *testing.T) {
	// The counter at v survives across passes; pass 12 makes the divisor
	// zero, well after the fb block compiled on pass blockHeatMin.
	image := pal.MustBuild(`
		ldi	r2, v
		load	r0, [r2]
		addi	r0, 1
		store	r0, [r2]
		jmp	fb
	fb:	ldi	r1, 12
		sub	r1, r0
		ldi	r3, 100
		divu	r3, r1
		halt
	v:	.word 0
	`)
	run := func(compile bool) (*CPU, *chipset.Chipset, error) {
		c, cs, region := newTCodeMachine(t, image, compile)
		for i := 0; i < 11; i++ {
			c.EnterRegion(region, image.Entry)
			if reason, err := c.Run(0); err != nil || reason != StopHalt {
				t.Fatalf("pass %d: %v %v", i, reason, err)
			}
		}
		c.EnterRegion(region, image.Entry)
		reason, err := c.Run(0)
		if reason != StopFault || err == nil {
			t.Fatalf("pass 12: want fault, got %v %v", reason, err)
		}
		return c, cs, err
	}
	on, csOn, errOn := run(true)
	off, csOff, errOff := run(false)
	if errOn.Error() != errOff.Error() {
		t.Fatalf("fault errors diverge:\n  compiled    %v\n  interpreted %v", errOn, errOff)
	}
	if !errors.Is(errOn, ErrFault) {
		t.Fatalf("compiled fault does not wrap ErrFault: %v", errOn)
	}
	sameRun(t, on, off, csOn, csOff)
	if st := on.TCodeStatsSnapshot(); st.Execs == 0 {
		t.Fatalf("fault path never ran compiled: %+v", st)
	}
}

// TestBlockCompileSelfModifyInvalidation: patching an instruction inside an
// already-compiled block must be observed — the stale closure chain may
// never run the old semantics. The patch happens from *outside* the block,
// so it is caught by lookup-time revalidation (version moved, bytes
// changed), counted as an invalidation, and recompiled.
func TestBlockCompileSelfModifyInvalidation(t *testing.T) {
	patched := isa.Instruction{Op: isa.OpLdi, RA: 4, Imm: 99}.Encode()
	src := fmt.Sprintf(`
		ldi	r5, 0
	start:	ldi	r0, 0
		ldi	r1, 10
	lp1:	addi	r0, 1
	mark:	ldi	r4, 1
		cmp	r0, r1
		jnz	lp1
		ldi	r6, 1
		cmp	r5, r6
		jz	done
		mov	r5, r6
		ldi	r3, %d
		lui	r3, %d
		ldi	r2, mark
		store	r3, [r2]
		jmp	start
	done:	halt
	`, patched&0xffff, patched>>16)
	image := pal.MustBuild(src)
	on, csOn := runPasses(t, image, true, 1)
	off, csOff := runPasses(t, image, false, 1)
	sameRun(t, on, off, csOn, csOff)
	if on.Regs[4] != 99 {
		t.Fatalf("patched instruction did not execute: r4=%d, want 99", on.Regs[4])
	}
	st := on.TCodeStatsSnapshot()
	if st.Invalidations == 0 {
		t.Fatalf("patch went unnoticed by the block cache: %+v", st)
	}
	if st.Compiled < 2 {
		t.Fatalf("block was not recompiled after the patch: %+v", st)
	}
}

// TestBlockCompileMidBlockStoreBailout: a store inside a hot block that
// dirties the block's own pages must stop the block right after the store
// (its effects are architecturally complete) and resume interpretation at
// the next instruction. Repeated offenders get poisoned so the tier stops
// paying compile + bailout for them.
func TestBlockCompileMidBlockStoreBailout(t *testing.T) {
	// The store rewrites mark with its existing bytes: semantics never
	// change, but every write bumps the page version, so each compiled
	// execution bails mid-block.
	word := isa.Instruction{Op: isa.OpLdi, RA: 4, Imm: 7}.Encode()
	src := fmt.Sprintf(`
		ldi	r0, 0
		ldi	r1, 40
		ldi	r3, %d
		lui	r3, %d
		ldi	r2, mark
	loop:	addi	r0, 1
		store	r3, [r2]
	mark:	ldi	r4, 7
		cmp	r0, r1
		jnz	loop
		halt
	`, word&0xffff, word>>16)
	image := pal.MustBuild(src)
	on, csOn := runPasses(t, image, true, 2)
	off, csOff := runPasses(t, image, false, 2)
	sameRun(t, on, off, csOn, csOff)
	st := on.TCodeStatsSnapshot()
	if st.Bailouts == 0 {
		t.Fatalf("self-dirtying block never bailed: %+v", st)
	}
	// 40 iterations × 2 passes is far past maxBlockBails: the loop leader
	// must have been poisoned instead of bailing ~70 times.
	if st.Bailouts > maxBlockBails+2 {
		t.Fatalf("poisoning did not engage: %d bailouts, %+v", st.Bailouts, st)
	}
}

// driveSlices runs image for passes passes on one machine with p (which
// may be nil) installed, each pass in quantum slices until it halts, and
// returns the PC of every preemption.
func driveSlices(t *testing.T, image pal.Image, compile bool, quantum time.Duration, passes int, p Profiler) (*CPU, *chipset.Chipset, []uint32) {
	t.Helper()
	c, cs, region := newTCodeMachine(t, image, compile)
	c.SetProfiler(p)
	var stops []uint32
	for pass := 0; pass < passes; pass++ {
		c.EnterRegion(region, image.Entry)
		for {
			reason, err := c.Run(quantum)
			if err != nil {
				t.Fatalf("compile=%v quantum=%v pass %d: %v", compile, quantum, pass, err)
			}
			if reason == StopHalt {
				break
			}
			if reason != StopPreempted {
				t.Fatalf("compile=%v quantum=%v pass %d: unexpected %v", compile, quantum, pass, reason)
			}
			stops = append(stops, c.PC)
		}
	}
	return c, cs, stops
}

// sameSlices drives image sliced under both tiers and requires identical
// final state and identical preemption points. It returns the compiled
// machine.
func sameSlices(t *testing.T, image pal.Image, quantum time.Duration, passes int) *CPU {
	t.Helper()
	on, csOn, stopsOn := driveSlices(t, image, true, quantum, passes, nil)
	off, csOff, stopsOff := driveSlices(t, image, false, quantum, passes, nil)
	sameRun(t, on, off, csOn, csOff)
	if len(stopsOn) != len(stopsOff) {
		t.Fatalf("quantum=%v: preemption counts diverge: %d vs %d", quantum, len(stopsOn), len(stopsOff))
	}
	for i := range stopsOn {
		if stopsOn[i] != stopsOff[i] {
			t.Fatalf("quantum=%v: preemption %d lands at pc=%d compiled, pc=%d interpreted",
				quantum, i, stopsOn[i], stopsOff[i])
		}
	}
	return on
}

// compiledAt returns the compiled block whose leader is PAL-relative pc in
// region, or nil.
func compiledAt(c *CPU, region mem.Region, pc uint32) *blockEntry {
	phys := region.Base + pc
	if c.bcache == nil {
		return nil
	}
	if e := c.bcache[(phys>>2)&(blockCacheSize-1)]; e != nil && e.key == phys+1 {
		return e
	}
	return nil
}

// TestBlockCompileQuantumDifferential: preemption must land on exactly the
// same instruction with the tier on — a block only runs when all of it fits
// the remaining quantum, otherwise the interpreter runs the tail.
func TestBlockCompileQuantumDifferential(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 30
	loop:	addi	r0, 1
		add	r2, r0
		xor	r3, r2
		cmp	r0, r1
		jnz	loop
		halt
	`)
	instr := ParamsAMDdc5750().InstrCost
	for _, qn := range []int{1, 2, 3, 5, 7, 64} {
		sameSlices(t, image, time.Duration(qn)*instr, tcodePasses)
	}
}

// TestBlockChainSelfLoopQuanta: a three-instruction loop block chains into
// itself. Under quanta of 1–8 instructions every slice must still stop on
// the interpreter's instruction — the chained run repeats the budget check
// — and from 6 instructions up, where two blocks fit one slice, the block
// must have recorded itself as its taken successor.
func TestBlockChainSelfLoopQuanta(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 50
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	instr := ParamsAMDdc5750().InstrCost
	loopPC := uint32(image.Entry) + 2*isa.WordSize
	for qn := 1; qn <= 8; qn++ {
		on := sameSlices(t, image, time.Duration(qn)*instr, tcodePasses)
		e := compiledAt(on, on.region, loopPC)
		if e == nil {
			t.Fatalf("q=%d: loop block never compiled", qn)
		}
		if qn >= 6 && e.succ[0] != e {
			t.Fatalf("q=%d: loop block did not chain into itself", qn)
		}
	}
}

// TestBlockChainSuccessorPageStored: block A stores into the page of block
// B and then jumps to it, so every chained entry into B finds B's page
// version moved. With the stored word toggling between two instructions
// the chain must revalidate, see the new bytes and recompile B; with the
// same word stored each time revalidation must let B run as compiled.
func TestBlockChainSuccessorPageStored(t *testing.T) {
	w7 := isa.Instruction{Op: isa.OpLdi, RA: 4, Imm: 7}.Encode()
	w9 := isa.Instruction{Op: isa.OpLdi, RA: 4, Imm: 9}.Encode()
	for _, tc := range []struct {
		name   string
		toggle uint32 // xor applied to the stored word each iteration
		sum    uint32 // r6 after 30 iterations
	}{
		{"patched", w7 ^ w9, 15*9 + 15*7},
		{"same-bytes", 0, 30 * 7},
	} {
		image := pal.MustBuild(fmt.Sprintf(`
			ldi	r0, 0
			ldi	r1, 30
			ldi	r2, mark
			ldi	r3, %d
			lui	r3, %d
			ldi	r5, %d
			lui	r5, %d
			ldi	r6, 0
			ldi	r7, loop
		loop:	addi	r0, 1
			xor	r3, r5
			store	r3, [r2]
			jmp	mark
			.align	4096
		mark:	ldi	r4, 7
			add	r6, r4
			cmp	r0, r1
			jnz	loop
			halt
		`, w7&0xffff, w7>>16, tc.toggle&0xffff, tc.toggle>>16))
		instr := ParamsAMDdc5750().InstrCost
		for _, quantum := range []time.Duration{0, 7 * instr} {
			on := sameSlices(t, image, quantum, 1)
			if on.Regs[6] != tc.sum {
				t.Fatalf("%s quantum=%v: r6=%d, want %d", tc.name, quantum, on.Regs[6], tc.sum)
			}
			a := compiledAt(on, on.region, on.Regs[7])
			b := compiledAt(on, on.region, on.Regs[2])
			if a == nil || b == nil {
				t.Fatalf("%s quantum=%v: blocks not compiled (A %v, B %v)", tc.name, quantum, a != nil, b != nil)
			}
			if a.pages[0] == b.pages[0] {
				t.Fatalf("%s: A and B share page %d; the test needs them apart", tc.name, a.pages[0])
			}
			if a.succ[0] != b {
				t.Fatalf("%s quantum=%v: A did not chain into B", tc.name, quantum)
			}
			st := on.TCodeStatsSnapshot()
			if (tc.toggle != 0) != (st.Invalidations > 0) {
				t.Fatalf("%s quantum=%v: %d invalidations: %+v", tc.name, quantum, st.Invalidations, st)
			}
		}
	}
}

// TestBlockCompileProfilerParity: with a plain Profiler installed, the
// compiled tier must report the identical (pc, op, cost) retirement stream
// as the interpreter — per instruction, in program order, fused pairs
// included.
func TestBlockCompileProfilerParity(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 9
	loop:	ldi	r2, v
		load	r3, [r2]
		add	r3, r0
		addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	v:	.word 21
	`)
	record := func(compile bool) *fakeProfiler {
		c, _, region := newTCodeMachine(t, image, compile)
		f := &fakeProfiler{}
		c.SetProfiler(f)
		for i := 0; i < tcodePasses; i++ {
			c.EnterRegion(region, image.Entry)
			if reason, err := c.Run(0); err != nil || reason != StopHalt {
				t.Fatalf("pass %d: %v %v", i, reason, err)
			}
		}
		if int64(len(f.pcs)) != c.Retired {
			t.Fatalf("profiler saw %d retirements, CPU retired %d", len(f.pcs), c.Retired)
		}
		return f
	}
	on, off := record(true), record(false)
	if len(on.pcs) != len(off.pcs) {
		t.Fatalf("retirement streams diverge in length: %d vs %d", len(on.pcs), len(off.pcs))
	}
	for i := range on.pcs {
		if on.pcs[i] != off.pcs[i] || on.ops[i] != off.ops[i] {
			t.Fatalf("retirement %d diverges: compiled (pc=%d %v), interpreted (pc=%d %v)",
				i, on.pcs[i], on.ops[i], off.pcs[i], off.ops[i])
		}
	}
	if on.total != off.total {
		t.Fatalf("charged cost diverges: %v vs %v", on.total, off.total)
	}
}

// tierProfiler implements BlockProfiler: it sees which tier retired each
// instruction.
type tierProfiler struct {
	fakeProfiler
	compiled int
}

func (p *tierProfiler) RetireCompiled(pc uint32, op isa.Opcode, cost time.Duration) {
	p.compiled++
	p.RetireInstr(pc, op, cost)
}

// TestBlockProfilerSeesCompiledTier: a profiler implementing the optional
// BlockProfiler interface is routed compiled retirements through
// RetireCompiled, and the union of both callbacks covers every retirement.
func TestBlockProfilerSeesCompiledTier(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 10
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	c, _, region := newTCodeMachine(t, image, true)
	p := &tierProfiler{}
	c.SetProfiler(p)
	for i := 0; i < tcodePasses; i++ {
		c.EnterRegion(region, image.Entry)
		if reason, err := c.Run(0); err != nil || reason != StopHalt {
			t.Fatalf("pass %d: %v %v", i, reason, err)
		}
	}
	if int64(len(p.pcs)) != c.Retired {
		t.Fatalf("profiler saw %d retirements, CPU retired %d", len(p.pcs), c.Retired)
	}
	if p.compiled == 0 {
		t.Fatal("BlockProfiler never saw a compiled retirement")
	}
	if int64(p.compiled) != c.TCodeStatsSnapshot().Instrs {
		t.Fatalf("profiler counted %d compiled retirements, tier counted %d",
			p.compiled, c.TCodeStatsSnapshot().Instrs)
	}
}

// TestBlockChainIndirectSuccessor: a subroutine's ret block returns to two
// call sites in turn, so its taken-exit successor slot holds the wrong
// block on every other return. The chain must notice the leader mismatch
// and look the right block up instead of running the cached one.
func TestBlockChainIndirectSuccessor(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 30
		ldi	r2, 0
		ldi	r3, 0
		ldi	r4, 0
	loop:	call	sub
		addi	r2, 1
		call	sub
		addi	r3, 3
		addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	sub:	addi	r4, 1
		ret
		.space	64	; stack
	`)
	instr := ParamsAMDdc5750().InstrCost
	for _, quantum := range []time.Duration{0, 9 * instr} {
		on := sameSlices(t, image, quantum, tcodePasses)
		if on.Regs[2] != 30 || on.Regs[3] != 90 || on.Regs[4] != 60 {
			t.Fatalf("quantum=%v: r2=%d r3=%d r4=%d, want 30 90 60", quantum, on.Regs[2], on.Regs[3], on.Regs[4])
		}
	}
}

// TestBlockChainProfilerParity: with chaining on — a self-looping block
// and a two-block cycle, whole and in 7-instruction slices — both a plain
// Profiler and a BlockProfiler must see the interpreter's exact
// retirement stream, and the BlockProfiler's compiled share must equal
// the tier's Instrs counter.
func TestBlockChainProfilerParity(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 20
		ldi	r2, 0
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		ldi	r0, 0
		addi	r2, 1
	a:	addi	r0, 2
		jmp	b
	b:	add	r3, r0
		cmp	r0, r1
		jnz	a
		ldi	r0, 3
		cmp	r2, r0
		jnz	loop
		halt
	`)
	instr := ParamsAMDdc5750().InstrCost
	for _, quantum := range []time.Duration{0, 7 * instr} {
		fOn, fOff := &fakeProfiler{}, &fakeProfiler{}
		on, _, _ := driveSlices(t, image, true, quantum, tcodePasses, fOn)
		driveSlices(t, image, false, quantum, tcodePasses, fOff)
		if int64(len(fOn.pcs)) != on.Retired {
			t.Fatalf("quantum=%v: profiler saw %d retirements, CPU retired %d", quantum, len(fOn.pcs), on.Retired)
		}
		if len(fOn.pcs) != len(fOff.pcs) || fOn.total != fOff.total {
			t.Fatalf("quantum=%v: streams diverge: %d retirements (%v) vs %d (%v)",
				quantum, len(fOn.pcs), fOn.total, len(fOff.pcs), fOff.total)
		}
		for i := range fOn.pcs {
			if fOn.pcs[i] != fOff.pcs[i] || fOn.ops[i] != fOff.ops[i] {
				t.Fatalf("quantum=%v: retirement %d diverges: compiled (pc=%d %v), interpreted (pc=%d %v)",
					quantum, i, fOn.pcs[i], fOn.ops[i], fOff.pcs[i], fOff.ops[i])
			}
		}
		tp := &tierProfiler{}
		c, _, _ := driveSlices(t, image, true, quantum, tcodePasses, tp)
		if int64(len(tp.pcs)) != c.Retired || int64(tp.compiled) != c.TCodeStatsSnapshot().Instrs {
			t.Fatalf("quantum=%v: BlockProfiler saw %d retirements (%d compiled), CPU retired %d, tier %d",
				quantum, len(tp.pcs), tp.compiled, c.Retired, c.TCodeStatsSnapshot().Instrs)
		}
		if loop := compiledAt(c, c.region, uint32(image.Entry)+3*isa.WordSize); loop == nil || loop.succ[0] != loop {
			t.Fatalf("quantum=%v: the loop block did not chain into itself", quantum)
		}
	}
}

// counterRow is a TCodeStats snapshot: Execs, Instrs, Bailouts, Compiled.
type counterRow [4]int64

// TestTCodeCountersExact pins the tier's counter semantics: after every
// Run of a 40-iteration loop, under each quantum, the published counters
// must equal the values the tier produced before blocks chained. Quanta
// of 5 and 8 instructions make the chained lookup refuse the budget; each
// refusal must count one bailout, not two.
func TestTCodeCountersExact(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 40
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	instr := ParamsAMDdc5750().InstrCost
	for _, tc := range []struct {
		qn   int
		want []counterRow
	}{
		{0, []counterRow{{32, 96, 0, 1}}},
		{5, []counterRow{
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
			{1, 3, 1, 1}, {2, 6, 1, 1}, {3, 9, 2, 1}, {4, 12, 3, 1}, {5, 15, 3, 1},
			{6, 18, 4, 1}, {7, 21, 5, 1}, {8, 24, 5, 1}, {9, 27, 6, 1}, {10, 30, 7, 1},
			{11, 33, 7, 1}, {12, 36, 8, 1}, {13, 39, 9, 1}, {14, 42, 9, 1}, {15, 45, 10, 1},
			{16, 48, 11, 1}, {17, 51, 11, 1}, {18, 54, 12, 1}, {20, 58, 13, 2}, {21, 60, 13, 3},
		}},
		{8, []counterRow{
			{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {2, 6, 0, 1}, {4, 12, 1, 1},
			{6, 18, 2, 1}, {8, 24, 2, 1}, {10, 30, 3, 1}, {12, 36, 4, 1}, {14, 42, 4, 1},
			{16, 48, 5, 1}, {18, 54, 6, 1}, {20, 60, 6, 1}, {22, 66, 7, 1}, {24, 72, 8, 1},
			{24, 72, 8, 1},
		}},
	} {
		c, _, region := newTCodeMachine(t, image, true)
		c.EnterRegion(region, image.Entry)
		for i := 0; ; i++ {
			reason, err := c.Run(time.Duration(tc.qn) * instr)
			if err != nil {
				t.Fatalf("q=%d run %d: %v", tc.qn, i, err)
			}
			if i >= len(tc.want) {
				t.Fatalf("q=%d: more than %d runs", tc.qn, len(tc.want))
			}
			st := c.TCodeStatsSnapshot()
			if got := (counterRow{st.Execs, st.Instrs, st.Bailouts, st.Compiled}); got != tc.want[i] || st.Invalidations != 0 {
				t.Fatalf("q=%d run %d: counters %v (invalidations %d), want %v",
					tc.qn, i, got, st.Invalidations, tc.want[i])
			}
			if reason == StopHalt {
				if i != len(tc.want)-1 {
					t.Fatalf("q=%d: halted after %d runs, want %d", tc.qn, i+1, len(tc.want))
				}
				break
			}
		}
	}
}

// TestSetBlockCompile: the switch mirrors SetDecodeCache — disabling drops
// all tier state and re-enabling starts cold.
func TestSetBlockCompile(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 10
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	c, _, region := newTCodeMachine(t, image, true)
	if c.tcodeOff {
		t.Fatal("tier not enabled by default")
	}
	for i := 0; i < tcodePasses; i++ {
		c.EnterRegion(region, image.Entry)
		if reason, err := c.Run(0); err != nil || reason != StopHalt {
			t.Fatalf("pass %d: %v %v", i, reason, err)
		}
	}
	if c.bcache == nil {
		t.Fatal("hot run left no block cache")
	}
	c.SetBlockCompile(false)
	if !c.tcodeOff || c.bcache != nil || c.bheat != nil {
		t.Fatal("SetBlockCompile(false) did not drop tier state")
	}
	before := c.TCodeStatsSnapshot().Execs
	c.EnterRegion(region, image.Entry)
	if reason, err := c.Run(0); err != nil || reason != StopHalt {
		t.Fatalf("compile-off run: %v %v", reason, err)
	}
	if c.TCodeStatsSnapshot().Execs != before {
		t.Fatal("disabled tier still executed compiled blocks")
	}
}

// TestBlockCompileTracerDisablesTier: palasm -trace must observe the
// interpreter — a CPU with a tracer installed never consults the tier.
func TestBlockCompileTracerDisablesTier(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 10
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	c, _, region := newTCodeMachine(t, image, true)
	traced := 0
	c.SetTracer(func(_ *CPU, _ uint32, _ isa.Instruction) { traced++ })
	for i := 0; i < tcodePasses; i++ {
		c.EnterRegion(region, image.Entry)
		if reason, err := c.Run(0); err != nil || reason != StopHalt {
			t.Fatalf("pass %d: %v %v", i, reason, err)
		}
	}
	if traced == 0 {
		t.Fatal("tracer never fired")
	}
	if int64(traced) != c.Retired {
		t.Fatalf("tracer saw %d of %d retirements — compiled blocks bypassed it", traced, c.Retired)
	}
	if st := c.TCodeStatsSnapshot(); st.Execs != 0 {
		t.Fatalf("tier ran under a tracer: %+v", st)
	}
}

// TestRunSteadyStateAllocsCompiled pins the compiled tier's hot path: once
// every leader is compiled, re-running the program end to end must not
// allocate — lookup, revalidation, and the closure chains are all
// allocation-free.
func TestRunSteadyStateAllocsCompiled(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 8
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	c, _, region := newTCodeMachine(t, image, true)
	for i := 0; i < tcodePasses; i++ { // warm: compile every leader
		c.EnterRegion(region, image.Entry)
		if reason, err := c.Run(0); err != nil || reason != StopHalt {
			t.Fatalf("warm pass %d: %v %v", i, reason, err)
		}
	}
	if st := c.TCodeStatsSnapshot(); st.Execs == 0 {
		t.Fatalf("warm-up never reached the compiled tier: %+v", st)
	}
	execsBefore := c.TCodeStatsSnapshot().Execs
	var (
		reason StopReason
		err    error
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.EnterRegion(region, image.Entry)
		reason, err = c.Run(0)
	})
	if err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state compiled Run allocates %v allocs/op, want 0", allocs)
	}
	if c.TCodeStatsSnapshot().Execs == execsBefore {
		t.Fatal("timed runs did not execute compiled blocks")
	}
}

// TestRunSteadyStateAllocsCompileOff pins the tier-off path: with
// SetBlockCompile(false) the only new per-iteration work is one boolean
// test, so the PR 3 zero-allocation gate must still hold.
func TestRunSteadyStateAllocsCompileOff(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 8
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	c, _, region := newTCodeMachine(t, image, false)
	c.EnterRegion(region, image.Entry)
	if reason, err := c.Run(0); err != nil || reason != StopHalt { // warm decode cache
		t.Fatalf("warm run: %v %v", reason, err)
	}
	var (
		reason StopReason
		err    error
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.EnterRegion(region, image.Entry)
		reason, err = c.Run(0)
	})
	if err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	if allocs != 0 {
		t.Fatalf("compile-off Run allocates %v allocs/op, want 0", allocs)
	}
}

// TestBlockCompileRandomPrograms is the in-package cousin of the isa-level
// differential fuzzer: random branchy ALU programs inside a loop must end
// bit-identical under both tiers.
func TestBlockCompileRandomPrograms(t *testing.T) {
	ops := []string{"add", "sub", "mul", "and", "or", "xor", "shl", "shr", "cmp", "mov"}
	for seed := uint64(1); seed <= 24; seed++ {
		rng := sim.NewRNG(seed)
		n := int(rng.Uint64()%40) + 4
		src := "\tldi\tr6, 0\n\tldi\tr5, 13\nloop:\taddi\tr6, 1\n"
		for i := 0; i < n; i++ {
			op := ops[rng.Uint64()%uint64(len(ops))]
			ra := rng.Uint64() % 5 // r0-r4 scratch
			rb := rng.Uint64() % 5
			src += fmt.Sprintf("\t%s\tr%d, r%d\n", op, ra, rb)
		}
		src += "\tcmp\tr6, r5\n\tjnz\tloop\n\thalt\n"
		image := pal.MustBuild(src)
		on, csOn := runPasses(t, image, true, tcodePasses)
		off, csOff := runPasses(t, image, false, tcodePasses)
		sameRun(t, on, off, csOn, csOff)
	}
}

// TestDecodeCacheStats: the new accessor must account for every fetch —
// cold misses, steady hits, version evictions after self-modification, and
// the page-boundary bypass that used to be invisible.
func TestDecodeCacheStats(t *testing.T) {
	image := pal.MustBuild(`
		ldi	r0, 0
		ldi	r1, 6
	loop:	addi	r0, 1
		cmp	r0, r1
		jnz	loop
		halt
	`)
	c, _, region := newTCodeMachine(t, image, false) // interpreter only: every fetch is counted
	c.EnterRegion(region, image.Entry)
	if reason, err := c.Run(0); err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	st := c.DecodeCacheStatsSnapshot()
	if st.Misses == 0 {
		t.Fatalf("cold run recorded no misses: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("looped run recorded no hits: %+v", st)
	}
	if got := st.Hits + st.Misses + st.BoundarySkips; got != c.Retired {
		t.Fatalf("stats cover %d fetches, CPU retired %d: %+v", got, c.Retired, st)
	}

	// A store into the code page makes the next trip through the loop
	// refetch stale entries: same slot, same address, moved version.
	selfmod := pal.MustBuild(`
		ldi	r2, v
		ldi	r3, 0
	loop:	addi	r3, 1
		store	r3, [r2]
		ldi	r4, 3
		cmp	r3, r4
		jnz	loop
		halt
	v:	.word 0
	`)
	c2, _, region2 := newTCodeMachine(t, selfmod, false)
	c2.EnterRegion(region2, selfmod.Entry)
	if reason, err := c2.Run(0); err != nil || reason != StopHalt {
		t.Fatalf("selfmod run: %v %v", reason, err)
	}
	if st2 := c2.DecodeCacheStatsSnapshot(); st2.VersionEvictions == 0 {
		t.Fatalf("store into code page recorded no version evictions: %+v", st2)
	}
}

// TestDecodeCacheStatsBoundarySkip places an instruction across a page
// boundary and checks the bypass is counted rather than silent.
func TestDecodeCacheStatsBoundarySkip(t *testing.T) {
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := New(0, ParamsAMDdc5750(), cs)
	c.Reset()
	c.SetBlockCompile(false)
	// Region starts 2 bytes before a page boundary: the first word
	// straddles pages and must bypass the cache.
	base := uint32(mem.PageSize - 2)
	prog := isa.EncodeProgram([]isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpHalt}})
	if err := cs.Memory().WriteRaw(base, prog); err != nil {
		t.Fatal(err)
	}
	c.EnterRegion(mem.Region{Base: base, Size: len(prog)}, 0)
	if reason, err := c.Run(0); err != nil || reason != StopHalt {
		t.Fatalf("run: %v %v", reason, err)
	}
	if st := c.DecodeCacheStatsSnapshot(); st.BoundarySkips == 0 {
		t.Fatalf("straddling fetch not counted: %+v", st)
	}
}
