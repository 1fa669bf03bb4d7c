package isa_test

import (
	"bytes"
	"testing"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/sim"
)

// FuzzExecDifferential is the executable extension of the ISA fuzz harness:
// any byte string, run as a program, must behave bit-identically under the
// interpreter and the threaded-code tier — registers, memory, flags, the
// virtual clock, retirement counts, stop reasons, and fault PCs/messages
// all included.
//
// The harness deliberately stresses the tier's hard cases:
//
//   - Programs run repeatedly, so leaders cross the heat threshold and the
//     later passes execute compiled blocks.
//   - Execution is driven in quantum slices, so blocks are preempted
//     mid-stream and must bail to the interpreter at the exact instruction
//     the timer hits.
//   - Stores land anywhere in the region, including over the program's own
//     instructions, exercising mid-block invalidation and recompilation.
//   - Undecodable words and runtime faults (division by zero, stack
//     over/underflow, out-of-region accesses) must surface the identical
//     error at the identical PC.
//
// This lives in package isa_test (not isa) because it needs the cpu
// package, which imports isa.
func FuzzExecDifferential(f *testing.F) {
	enc := func(prog ...isa.Instruction) []byte { return isa.EncodeProgram(prog) }

	// A hot loop with a fused cmp+branch.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 0},
		isa.Instruction{Op: isa.OpLdi, RA: 1, Imm: 30},
		isa.Instruction{Op: isa.OpAddi, RA: 0, Imm: 1}, // loop
		isa.Instruction{Op: isa.OpAdd, RA: 2, RB: 0},
		isa.Instruction{Op: isa.OpCmp, RA: 0, RB: 1},
		isa.Instruction{Op: isa.OpJnz, Imm: 8},
		isa.Instruction{Op: isa.OpHalt},
	), uint32(0), uint32(0), uint8(9))

	// Self-modifying: the loop stores a fresh word over its own body.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 0},
		isa.Instruction{Op: isa.OpLdi, RA: 2, Imm: 12},
		isa.Instruction{Op: isa.OpLdi, RA: 3, Imm: 9},
		isa.Instruction{Op: isa.OpAddi, RA: 0, Imm: 1}, // loop; also the store target
		isa.Instruction{Op: isa.OpStore, RA: 3, RB: 2},
		isa.Instruction{Op: isa.OpCmp, RA: 0, RB: 1},
		isa.Instruction{Op: isa.OpJnz, Imm: 12},
		isa.Instruction{Op: isa.OpHalt},
	), uint32(0), uint32(0), uint8(3))

	// Division faults once r1 counts down to zero.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 1, Imm: 5},
		isa.Instruction{Op: isa.OpLdi, RA: 2, Imm: 1},
		isa.Instruction{Op: isa.OpLdi, RA: 3, Imm: 100}, // loop
		isa.Instruction{Op: isa.OpDivu, RA: 3, RB: 1},
		isa.Instruction{Op: isa.OpSub, RA: 1, RB: 2},
		isa.Instruction{Op: isa.OpJmp, Imm: 8},
	), uint32(0), uint32(0), uint8(5))

	// Stack traffic: call/ret plus fused pop pairs.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 7},
		isa.Instruction{Op: isa.OpCall, Imm: 16},
		isa.Instruction{Op: isa.OpHalt},
		isa.Instruction{Op: isa.OpNop},
		isa.Instruction{Op: isa.OpPush, RA: 0}, // sub
		isa.Instruction{Op: isa.OpPush, RA: 0},
		isa.Instruction{Op: isa.OpPop, RA: 1},
		isa.Instruction{Op: isa.OpPop, RA: 2},
		isa.Instruction{Op: isa.OpRet},
	), uint32(3), uint32(4), uint8(0))

	// Raw garbage: must fault identically.
	f.Add([]byte{0xff, 0x13, 0x22, 0x9c, 0x01, 0x02}, uint32(1), uint32(2), uint8(2))

	// Tight-quantum counting loop: in 7-instruction slices the compiled loop
	// block chains into itself and the chained lookup refuses the budget
	// near each slice's end.
	f.Add(enc(
		isa.Instruction{Op: isa.OpLdi, RA: 0, Imm: 0},
		isa.Instruction{Op: isa.OpLdi, RA: 1, Imm: 200},
		isa.Instruction{Op: isa.OpAddi, RA: 0, Imm: 1}, // loop
		isa.Instruction{Op: isa.OpCmp, RA: 0, RB: 1},
		isa.Instruction{Op: isa.OpJnz, Imm: 8},
		isa.Instruction{Op: isa.OpHalt},
	), uint32(0), uint32(0), uint8(6))

	f.Fuzz(func(t *testing.T, prog []byte, r0, r1 uint32, qsel uint8) {
		if len(prog) == 0 || len(prog) > 256*isa.WordSize {
			return
		}
		prog = prog[:len(prog)/isa.WordSize*isa.WordSize]
		if len(prog) == 0 {
			return
		}
		// The region holds the program plus a stack/data page; sp starts at
		// the region top, clear of the code.
		const base = 0x4000
		size := len(prog) + int(mem.PageSize)

		type machine struct {
			c  *cpu.CPU
			cs *chipset.Chipset
		}
		mk := func(compile bool) machine {
			clock := sim.NewClock()
			cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
			c := cpu.New(0, cpu.ParamsAMDdc5750(), cs)
			if err := cs.Memory().WriteRaw(base, prog); err != nil {
				t.Fatal(err)
			}
			c.Reset()
			c.SetBlockCompile(compile)
			return machine{c, cs}
		}
		on, off := mk(true), mk(false)
		region := mem.Region{Base: base, Size: size}

		// quantum 0 would never preempt an infinite loop; always slice.
		quantum := time.Duration(1+int(qsel%32)) * cpu.ParamsAMDdc5750().InstrCost

		// Drive both machines through identical slices for several passes:
		// early passes heat the leaders, later ones execute compiled
		// blocks. Slices are capped so looping fuzz inputs terminate.
		const passes, maxSlices = 12, 64
		for pass := 0; pass < passes; pass++ {
			for _, m := range []machine{on, off} {
				m.c.EnterRegion(region, 0)
				m.c.Regs[0], m.c.Regs[1] = r0, r1
			}
			for slice := 0; slice < maxSlices; slice++ {
				reasonOn, errOn := on.c.Run(quantum)
				reasonOff, errOff := off.c.Run(quantum)
				if reasonOn != reasonOff {
					t.Fatalf("pass %d slice %d: stop reasons diverge: compiled %v, interpreted %v",
						pass, slice, reasonOn, reasonOff)
				}
				if (errOn == nil) != (errOff == nil) ||
					(errOn != nil && errOn.Error() != errOff.Error()) {
					t.Fatalf("pass %d slice %d: errors diverge:\n  compiled    %v\n  interpreted %v",
						pass, slice, errOn, errOff)
				}
				if on.c.PC != off.c.PC {
					t.Fatalf("pass %d slice %d: PC diverges: compiled %d, interpreted %d",
						pass, slice, on.c.PC, off.c.PC)
				}
				if on.c.Regs != off.c.Regs {
					t.Fatalf("pass %d slice %d: registers diverge:\n  compiled    %v\n  interpreted %v",
						pass, slice, on.c.Regs, off.c.Regs)
				}
				if on.c.FlagZ != off.c.FlagZ || on.c.FlagC != off.c.FlagC || on.c.FlagN != off.c.FlagN {
					t.Fatalf("pass %d slice %d: flags diverge", pass, slice)
				}
				if on.c.Retired != off.c.Retired {
					t.Fatalf("pass %d slice %d: retirement counts diverge: compiled %d, interpreted %d",
						pass, slice, on.c.Retired, off.c.Retired)
				}
				if on.c.Clock().Now() != off.c.Clock().Now() {
					t.Fatalf("pass %d slice %d: virtual clocks diverge: compiled %v, interpreted %v",
						pass, slice, on.c.Clock().Now(), off.c.Clock().Now())
				}
				if reasonOn != cpu.StopPreempted {
					break // halted, yielded, or faulted — identically
				}
			}
		}
		mOn, err := on.cs.Memory().ReadRaw(0, 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		mOff, err := off.cs.Memory().ReadRaw(0, 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mOn, mOff) {
			t.Fatal("memory contents diverge between compiled and interpreted runs")
		}
	})
}
