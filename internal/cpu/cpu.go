// Package cpu models the processor cores of the simulated platform: an
// interpreter for the PAL instruction set with per-page access checks on
// every memory reference, the late-launch microcode of today's hardware
// (AMD SKINIT, Intel SENTER), on-CPU hashing, and the VM entry/exit
// primitives whose latency Table 2 reports.
//
// The proposed-hardware instructions (SLAUNCH, SYIELD, SFREE, SKILL) build
// on these primitives but live in internal/sksm, keeping this package an
// honest model of what shipped in 2007.
package cpu

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/isa"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

// Vendor distinguishes the two late-launch implementations.
type Vendor int

// CPU vendors.
const (
	AMD Vendor = iota
	Intel
)

// String names the vendor.
func (v Vendor) String() string {
	if v == Intel {
		return "Intel"
	}
	return "AMD"
}

// Params is the per-model timing and capability description of a core.
type Params struct {
	// Vendor selects SKINIT (AMD) or SENTER (Intel) late launch.
	Vendor Vendor
	// ClockGHz is the nominal frequency, for reporting.
	ClockGHz float64
	// InstrCost is the virtual time charged per executed instruction.
	InstrCost time.Duration
	// InitCost is the cost of resetting the core to its trusted state at
	// late launch; Table 1's 0 KB row shows this is under 10 µs.
	InitCost time.Duration
	// VMEnter and VMExit are the world-switch costs of Table 2.
	VMEnter, VMExit time.Duration
	// HashPerKB is the on-CPU SHA-1 rate; Intel's ACMod hashes the PAL
	// on the main CPU at this rate (Table 1: 0.124375 ms/KB).
	HashPerKB time.Duration
	// SigVerifyCost is the chipset's ACMod signature check (Intel only).
	SigVerifyCost time.Duration
}

// StopReason explains why CPU.Run returned.
type StopReason int

// Stop reasons.
const (
	StopHalt      StopReason = iota // HALT or SVC exit
	StopYield                       // PAL voluntarily yielded
	StopPreempted                   // execution quantum exhausted
	StopFault                       // illegal instruction, memory fault, ...
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopYield:
		return "yield"
	case StopPreempted:
		return "preempted"
	case StopFault:
		return "fault"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// SvcAction is a service handler's verdict on how execution proceeds.
type SvcAction int

// Service actions.
const (
	SvcContinue SvcAction = iota
	SvcExit
	SvcYield
)

// ServiceFunc handles SVC instructions. It may read and write the CPU's
// registers and the PAL's memory, and charge virtual time (e.g. for TPM
// operations). A returned error faults the PAL.
type ServiceFunc func(c *CPU, num uint16) (SvcAction, error)

// Well-known service numbers forming the PAL ABI. The SEA runtime and the
// recommended-hardware runtime both implement these.
const (
	SvcNumExit    = 0 // terminate; r0 = status
	SvcNumYield   = 1 // voluntarily yield the CPU
	SvcNumExtend  = 2 // extend measurement of [r0,r0+r1) into the PAL's PCR
	SvcNumSeal    = 3 // seal [r0,r0+r1) to the PAL identity; blob to [r2]; r0 = blob len
	SvcNumUnseal  = 4 // unseal blob [r0,r0+r1); plaintext to [r2]; r0 = len, r1 = status
	SvcNumRandom  = 5 // r1 TPM-random bytes to [r0]
	SvcNumOutput  = 6 // append [r0,r0+r1) to the PAL output channel
	SvcNumInput   = 7 // copy up to r1 input bytes to [r0]; r0 = copied
	SvcNumGetTime = 8 // r0 = low 32 bits of virtual ns (diagnostics)
)

// Errors surfaced by the core.
var (
	ErrFault      = errors.New("cpu: fault")
	ErrNoService  = errors.New("cpu: SVC executed with no service handler installed")
	ErrWrongModel = errors.New("cpu: instruction not available on this CPU model")
)

// CPU is one core.
type CPU struct {
	// ID is the core number; memory requests carry it to the chipset.
	ID int
	// Params is the core's timing model.
	Params Params
	// Timeline records this core's busy time for utilization reporting.
	Timeline sim.Timeline

	chip *chipset.Chipset

	// Architectural state.
	Regs        [isa.NumRegs]uint32
	PC          uint32 // offset within the current region
	FlagZ       bool
	FlagC       bool
	FlagN       bool
	Ring        int
	IntrEnabled bool

	region  mem.Region // current execution region (the PAL's memory)
	svc     ServiceFunc
	idt     [NumIntrVectors]uint16 // PAL interrupt handlers (§6 extension)
	tracer  Tracer
	prof    Profiler
	Retired int64 // instructions executed (statistics)

	// Decoded-instruction cache (decodecache.go). Lazily allocated;
	// private to the goroutine driving this core.
	dcache    []decodeEntry
	decodeOff bool
	dstats    DecodeCacheStats

	// Threaded-code tier (tcode.go): compiled basic blocks, leader heat
	// counters, and the profiler's compiled-tier hook. Lazily allocated
	// and, like dcache, private to the goroutine driving the core. The
	// statistics accumulate in tpend and are published to tstats with
	// atomic adds when Run returns, so metrics scrapes can read tstats
	// without the machine lock.
	bcache   []*blockEntry
	bheat    []heatEntry
	tcodeOff bool
	bprof    BlockProfiler
	tpend    tcodeCounters
	tstats   tcodeCounters
}

// Tracer observes each instruction before it executes, for debugging
// tooling (palasm run -trace). pc is the PAL-relative program counter.
type Tracer func(c *CPU, pc uint32, in isa.Instruction)

// SetTracer installs (or, with nil, removes) an instruction tracer.
func (c *CPU) SetTracer(t Tracer) { c.tracer = t }

// Profiler receives exact per-instruction cycle attribution from the
// interpreter: one call per retired instruction with the pre-execution PC
// and the virtual time charged. internal/obs/prof implements it; the
// interface lives here so this package stays dependency-free. With no
// profiler installed the run loop pays a single nil check per instruction
// (the same contract as Tracer).
type Profiler interface {
	RetireInstr(pc uint32, op isa.Opcode, cost time.Duration)
}

// BlockProfiler is the optional extension a Profiler may implement to
// distinguish instructions retired through the threaded-code tier
// (tcode.go) from interpreted ones. The arguments carry exactly what
// RetireInstr would have received for the same instruction; a profiler
// that does not implement it sees compiled retirements through
// RetireInstr and cannot tell the tiers apart.
type BlockProfiler interface {
	Profiler
	RetireCompiled(pc uint32, op isa.Opcode, cost time.Duration)
}

// SetProfiler installs (or, with nil, removes) the cycle profiler. Like
// the SVC handler it is execution-context state: ClearMicroarchState
// removes it, and the launching microcode reinstalls it per PAL.
func (c *CPU) SetProfiler(p Profiler) {
	c.prof = p
	if bp, ok := p.(BlockProfiler); ok {
		c.bprof = bp
	} else {
		c.bprof = nil
	}
}

// New creates a core attached to a chipset.
func New(id int, params Params, chip *chipset.Chipset) *CPU {
	return &CPU{ID: id, Params: params, chip: chip, Ring: 3, IntrEnabled: true}
}

// Chipset returns the attached chipset.
func (c *CPU) Chipset() *chipset.Chipset { return c.chip }

// Clock returns the platform clock.
func (c *CPU) Clock() *sim.Clock { return c.chip.Clock() }

// Region returns the current execution region.
func (c *CPU) Region() mem.Region { return c.region }

// SetService installs the SVC handler for the current execution context.
func (c *CPU) SetService(f ServiceFunc) { c.svc = f }

// Reset reinitializes the core to its well-known trusted state: registers
// cleared, flat protected mode at ring 0, interrupts disabled — the state
// both SKINIT and the proposed SLAUNCH establish.
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint32{}
	c.PC = 0
	c.FlagZ, c.FlagC, c.FlagN = false, false, false
	c.Ring = 0
	c.IntrEnabled = false
	c.region = mem.Region{}
	c.clearIDT()
	// The decode cache survives Reset: entries are validated against the
	// page's version counter on every hit, so stale decodes are already
	// impossible, and the cache holds no architectural state (the decoded
	// form is a pure function of the bytes it was decoded from). Dropping
	// it here would cost a fresh 64 KB allocation per launch on cores the
	// OS resets between PAL runs. Compiled blocks (tcode.go) survive for
	// the same reason: every lookup revalidates the block's region, page
	// versions, and — when versions moved — its exact bytes.
}

// EnterRegion begins executing at entry within region, with the stack
// pointer initialized to the region's top (§5.1: "allowing the PAL to
// confirm the size of its data memory region").
func (c *CPU) EnterRegion(r mem.Region, entry uint16) {
	c.region = r
	c.PC = uint32(entry)
	c.Regs[7] = uint32(r.Size) // sp, PAL-relative
}

// ArchState is the saved architectural state of a suspended PAL — the CPU
// state block the hardware writes into the SECB on SYIELD (§5.3). It
// includes the PAL's interrupt configuration so a resumed PAL keeps its
// handlers (§6).
type ArchState struct {
	Regs                [isa.NumRegs]uint32
	PC                  uint32
	FlagZ, FlagC, FlagN bool
	IntrEnabled         bool
	IDT                 [NumIntrVectors]uint16
}

// SaveState captures the architectural state.
func (c *CPU) SaveState() ArchState {
	return ArchState{
		Regs: c.Regs, PC: c.PC,
		FlagZ: c.FlagZ, FlagC: c.FlagC, FlagN: c.FlagN,
		IntrEnabled: c.IntrEnabled, IDT: c.idt,
	}
}

// LoadState restores previously saved architectural state.
func (c *CPU) LoadState(s ArchState) {
	c.Regs = s.Regs
	c.PC = s.PC
	c.FlagZ, c.FlagC, c.FlagN = s.FlagZ, s.FlagC, s.FlagN
	c.IntrEnabled = s.IntrEnabled
	c.idt = s.IDT
}

// ClearMicroarchState models the secure state clear on PAL suspend/exit:
// any residue that could leak PAL secrets (registers here; cache lines in
// real hardware) is zeroed (§5.3, §5.6).
func (c *CPU) ClearMicroarchState() {
	c.Regs = [isa.NumRegs]uint32{}
	c.FlagZ, c.FlagC, c.FlagN = false, false, false
	c.PC = 0
	c.region = mem.Region{}
	c.svc = nil
	c.prof = nil
	c.bprof = nil
	c.IntrEnabled = false
	c.clearIDT()
}

// translate converts a PAL-relative address range to a physical one,
// faulting on any access outside the PAL's region — the PAL's address
// space is exactly its allocated memory.
func (c *CPU) translate(addr uint32, n int) (uint32, error) {
	if n < 0 || int(addr)+n > c.region.Size {
		return 0, fmt.Errorf("%w: access [%d,%d) outside PAL region of %d bytes",
			ErrFault, addr, int(addr)+n, c.region.Size)
	}
	return c.region.Base + addr, nil
}

// ReadBytes reads n bytes at a PAL-relative address with full checks.
func (c *CPU) ReadBytes(addr uint32, n int) ([]byte, error) {
	phys, err := c.translate(addr, n)
	if err != nil {
		return nil, err
	}
	return c.chip.CPURead(c.ID, phys, n)
}

// WriteBytes writes bytes at a PAL-relative address with full checks.
func (c *CPU) WriteBytes(addr uint32, b []byte) error {
	phys, err := c.translate(addr, len(b))
	if err != nil {
		return err
	}
	return c.chip.CPUWrite(c.ID, phys, b)
}

// ReadWord reads a 32-bit little-endian word at a PAL-relative address.
func (c *CPU) ReadWord(addr uint32) (uint32, error) {
	phys, err := c.translate(addr, 4)
	if err != nil {
		return 0, err
	}
	return c.chip.CPUReadWord(c.ID, phys)
}

// WriteWord writes a 32-bit little-endian word at a PAL-relative address.
func (c *CPU) WriteWord(addr, v uint32) error {
	phys, err := c.translate(addr, 4)
	if err != nil {
		return err
	}
	return c.chip.CPUWriteWord(c.ID, phys, v)
}

// LoadByte reads one byte at a PAL-relative address.
func (c *CPU) LoadByte(addr uint32) (byte, error) {
	phys, err := c.translate(addr, 1)
	if err != nil {
		return 0, err
	}
	return c.chip.CPUReadByte(c.ID, phys)
}

// StoreByte writes one byte at a PAL-relative address.
func (c *CPU) StoreByte(addr uint32, v byte) error {
	phys, err := c.translate(addr, 1)
	if err != nil {
		return err
	}
	return c.chip.CPUWriteByte(c.ID, phys, v)
}

// HashOnCPU computes SHA-1 over data on this core, charging the core's
// hash rate — the operation Intel's ACMod performs on the PAL (§4.3.2).
func (c *CPU) HashOnCPU(data []byte) tpm.Digest {
	c.Clock().Advance(time.Duration(len(data)) * c.Params.HashPerKB / 1024)
	return sha1.Sum(data)
}

// VMEnter charges one guest-entry world switch (Table 2's VM Enter row)
// and returns the charged duration.
func (c *CPU) VMEnter() time.Duration {
	c.Clock().Advance(c.Params.VMEnter)
	return c.Params.VMEnter
}

// VMExit charges one guest-exit world switch (Table 2's VM Exit row).
func (c *CPU) VMExit() time.Duration {
	c.Clock().Advance(c.Params.VMExit)
	return c.Params.VMExit
}
