// Package-level benchmarks: one testing.B benchmark per table and figure
// of the paper, plus the ablations DESIGN.md calls out. Each benchmark
// drives the full simulator (late launch microcode, software TPM, memory
// controller) and reports the key *virtual-time* result as a custom metric
// alongside the usual wall-clock ns/op of the simulation itself.
//
// The authoritative regeneration of the paper's numbers is cmd/seabench;
// these benchmarks exist so `go test -bench` exercises every experiment
// code path and tracks simulator performance.
package main

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"minimaltcb/internal/chipset"
	"minimaltcb/internal/cpu"
	"minimaltcb/internal/experiments"
	"minimaltcb/internal/lpc"
	"minimaltcb/internal/mem"
	"minimaltcb/internal/osker"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/platform"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

func benchCfg() experiments.Config {
	return experiments.Config{Trials: 1, KeyBits: 1024, Seed: 42}
}

func msMetric(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkTable1_LateLaunch regenerates Table 1 (SKINIT/SENTER vs PAL
// size on all three machines) once per iteration.
func BenchmarkTable1_LateLaunch(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(msMetric(rows[0].Avg[64<<10]), "vms_skinit64KB")
	b.ReportMetric(msMetric(rows[2].Avg[64<<10]), "vms_senter64KB")
}

// BenchmarkFigure2_PALGen regenerates Figure 2's PAL Gen bar.
func BenchmarkFigure2_PALGen(b *testing.B) {
	var bars []experiments.Figure2Bar
	for i := 0; i < b.N; i++ {
		var err error
		bars, err = experiments.Figure2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(msMetric(bars[0].Total), "vms_palgen")
	b.ReportMetric(msMetric(bars[2].Total), "vms_paluse")
}

// BenchmarkFigure3_TPMOps regenerates Figure 3 (TPM microbenchmarks on
// all four chips).
func BenchmarkFigure3_TPMOps(b *testing.B) {
	var rows []experiments.Figure3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.TPM == "Broadcom (HP dc5750)" {
			b.ReportMetric(msMetric(r.Cells["Unseal"].Mean), "vms_broadcom_unseal")
		}
	}
}

// BenchmarkTable2_VMSwitch regenerates Table 2 (VM entry/exit).
func BenchmarkTable2_VMSwitch(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].EnterAvg.Nanoseconds()), "vns_amd_vmenter")
	b.ReportMetric(float64(rows[1].EnterAvg.Nanoseconds()), "vns_intel_vmenter")
}

// BenchmarkImpact_ContextSwitch regenerates §5.7's comparison and reports
// the measured improvement in orders of magnitude.
func BenchmarkImpact_ContextSwitch(b *testing.B) {
	var r *experiments.ImpactResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Impact(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OrdersOfMagnitude, "orders_of_magnitude")
	b.ReportMetric(msMetric(r.LegacyRoundTrip), "vms_legacy_switch")
}

// BenchmarkConcurrency_LegacyShare regenerates the concurrency sweep at
// one PAL count.
func BenchmarkConcurrency_LegacyShare(b *testing.B) {
	var pts []experiments.ConcurrencyPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Concurrency(benchCfg(), []int{2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].LegacyShareSEA, "legacy_share_sea")
	b.ReportMetric(pts[0].LegacyShareRec, "legacy_share_rec")
}

// BenchmarkAblation_HashLocation sweeps the AMD/Intel crossover.
func BenchmarkAblation_HashLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHashLocation(benchCfg(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_TPMWait contrasts the wait-stating and full-speed TPM.
func BenchmarkAblation_TPMWait(b *testing.B) {
	var r *experiments.TPMWaitResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationTPMWait(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Factor, "wait_factor")
}

// BenchmarkAblation_SePCRCount measures admission under register pressure.
func BenchmarkAblation_SePCRCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSePCRCount(benchCfg(), 8, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Quantum sweeps the preemption timer.
func BenchmarkAblation_Quantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationQuantum(benchCfg(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SealPayload sweeps TPM_Seal payload sizes.
func BenchmarkAblation_SealPayload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSealPayload(benchCfg(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_TwoStageAMD measures footnote 4's two-stage launch.
func BenchmarkAblation_TwoStageAMD(b *testing.B) {
	var pts []experiments.TwoStagePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationTwoStageAMD(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(float64(last.SingleStage)/float64(last.TwoStage), "speedup_64KB")
}

// BenchmarkAblation_CrossPlatform measures Figure 2 on all four TPMs.
func BenchmarkAblation_CrossPlatform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFigure2CrossPlatform(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExec measures raw PAL execution on one core: a compute loop run to
// completion per iteration, with the threaded-code tier on or off. The pair
// is the direct interpreter-vs-compiled comparison; everything above it
// (Table1, Impact, Service_*) measures the tier folded into full workloads.
func benchExec(b *testing.B, compile bool) {
	b.Helper()
	// The hot block is store-free: a store would dirty the block's own
	// page every iteration (code and data share this small image), which
	// the tier correctly answers by poisoning the block — that bailout
	// path has its own differential tests, but it is not the steady state
	// this benchmark is after.
	image := pal.MustBuild(`
		ldi	r1, acc
		ldi	r0, 0
		ldi	r3, 400
	loop:	addi	r0, 1
		load	r2, [r1]
		add	r2, r0
		xor	r4, r2
		add	r2, r2
		cmp	r0, r3
		jnz	loop
		store	r2, [r1]
		halt
	acc:	.word 0
	stack:	.space 64
	`)
	clock := sim.NewClock()
	cs := chipset.New(clock, mem.New(16*mem.PageSize), lpc.NewBus(clock, lpc.FullSpeed()), nil)
	c := cpu.New(0, cpu.ParamsAMDdc5750(), cs)
	if err := cs.Memory().WriteRaw(0x4000, image.Bytes); err != nil {
		b.Fatal(err)
	}
	c.Reset()
	c.SetBlockCompile(compile)
	region := mem.Region{Base: 0x4000, Size: image.Len()}
	run := func() {
		c.EnterRegion(region, image.Entry)
		if reason, err := c.Run(0); err != nil || reason != cpu.StopHalt {
			b.Fatalf("run stopped %v: %v", reason, err)
		}
	}
	// Warm until every leader is past the heat threshold and compiled, so
	// the timed loop measures the steady state of the chosen tier.
	for i := 0; i < 32; i++ {
		run()
	}
	start := c.Retired
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	instrs := c.Retired - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	if st := c.TCodeStatsSnapshot(); compile && st.Execs == 0 {
		b.Fatal("compiled benchmark never executed a compiled block")
	} else if !compile && st.Execs != 0 {
		b.Fatal("interpreter benchmark executed compiled blocks")
	}
}

// BenchmarkExec_Interpreter is the pure-interpreter baseline: per-instruction
// fetch, decode-cache lookup, and opcode dispatch.
func BenchmarkExec_Interpreter(b *testing.B) { benchExec(b, false) }

// BenchmarkExec_ThreadedCode runs the same loop from compiled
// superinstruction closures.
func BenchmarkExec_ThreadedCode(b *testing.B) { benchExec(b, true) }

// preemptedPAL is the busy loop of perfbench's preempt-compute workload:
// ~393k instructions of `addi; cmp; jnz`, then an echo of its input.
const preemptedPAL = `
	ldi r0, 0
	ldi r1, 0
	lui r1, 2
loop:	addi r0, 1
	cmp r0, r1
	jnz loop
	ldi r0, buf
	ldi r1, 32
	svc 7
	mov r1, r0
	ldi r0, buf
	svc 6
	ldi r0, 0
	svc 0
buf:	.ascii "--------------------------------"
`

// BenchmarkExec_Preempted runs the busy-loop PAL to completion through
// SKSM under a 1µs preemption quantum, one job per iteration: about a
// thousand instructions per slice, with SLAUNCH resume and suspend between
// slices. It is the in-process counterpart of perfbench's preempt-compute
// workload, and reports host ns per retired PAL instruction.
func BenchmarkExec_Preempted(b *testing.B) {
	prof := platform.Recommended(platform.HPdc5750(), 8)
	prof.KeyBits = 1024
	prof.Seed = 42
	m, err := platform.New(prof)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := sksm.NewManager(osker.NewKernel(m))
	if err != nil {
		b.Fatal(err)
	}
	core := m.CPUs[1]
	image := pal.MustBuild(preemptedPAL)
	input := []byte("preempt")
	job := func() {
		s, err := mg.NewSECB(image, 0, time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		s.Input = input
		if err := mg.RunToCompletion(core, s); err != nil {
			b.Fatal(err)
		}
		if string(s.Output) != string(input) || s.Slices < 2 {
			b.Fatalf("job output %q after %d slices, want %q over several slices", s.Output, s.Slices, input)
		}
		if err := m.TPM().FreeSePCR(s.SePCRHandle); err != nil {
			b.Fatal(err)
		}
		if err := mg.Release(s); err != nil {
			b.Fatal(err)
		}
	}
	job() // compiles the loop and warms the launch-measurement cache
	start := core.Retired
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(core.Retired-start), "ns/instr")
}

// benchService builds the multi-tenant PAL service used by the
// BenchmarkService_* benchmarks: recommended HP dc5750, sePCR bank of 8.
// Optional mods adjust the config (e.g. enabling the batched quote
// pipeline) before the service starts.
func benchService(b *testing.B, mods ...func(*palsvc.Config)) *palsvc.Service {
	b.Helper()
	prof := platform.Recommended(platform.HPdc5750(), 8)
	prof.KeyBits = 1024
	prof.Seed = 42
	cfg := palsvc.Config{Profile: prof, Workers: 8, QueueDepth: 256}
	for _, mod := range mods {
		mod(&cfg)
	}
	s, err := palsvc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One warm job primes the one-time caches (decode cache, memory
	// chunks, buffer pools) so the timed loop measures steady state.
	if res, err := s.Run(palsvc.Job{Name: "warm", Source: benchPAL, NoAttest: true}); err != nil || res.Err != nil {
		b.Fatal(err, res.Err)
	}
	b.Cleanup(s.Close)
	return s
}

const benchPAL = `
	ldi r0, msg
	ldi r1, 5
	svc 6
	ldi r0, 0
	svc 0
msg:	.ascii "bench"
`

// BenchmarkService_Pipeline pushes jobs through the full palsvc pipeline —
// queue, sePCR admission, SLAUNCH execution, quote generation, verification
// — keeping a window of jobs in flight so admission and the TPM-arbitration
// locks are actually contended.
func BenchmarkService_Pipeline(b *testing.B) {
	benchPipeline(b, benchService(b))
}

// BenchmarkService_PipelineBatched is the same pipeline with the batched
// quote stage enabled: under a full in-flight window the batcher coalesces
// concurrent exits into one AIK signature per batch, so signs_per_job
// drops below 1 while every job still carries its own inclusion proof.
func BenchmarkService_PipelineBatched(b *testing.B) {
	benchPipeline(b, benchService(b, func(c *palsvc.Config) {
		c.Batch = palsvc.DefaultBatchPolicy()
	}))
}

func benchPipeline(b *testing.B, s *palsvc.Service) {
	b.Helper()
	const window = 16
	inflight := make(chan *palsvc.Ticket, window)
	done := make(chan error, 1)
	go func() {
		for tk := range inflight {
			if res := tk.Wait(); res.Err != nil {
				done <- res.Err
				return
			}
		}
		done <- nil
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			tk, err := s.Submit(palsvc.Job{Name: "bench", Source: benchPAL})
			if err != nil {
				if palsvc.IsRetryable(err) {
					continue // bounded queue pushed back; resubmit
				}
				b.Fatal(err)
			}
			inflight <- tk
			break
		}
	}
	close(inflight)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	m := s.Metrics()
	b.ReportMetric(msMetric(m.Execute.P50), "vms_exec_p50")
	b.ReportMetric(msMetric(m.QuoteGen.P50), "vms_quote_p50")
	b.ReportMetric(float64(m.MaxSePCROccupancy), "max_occupancy")
	if m.CacheHits+m.CacheMisses > 0 {
		b.ReportMetric(float64(m.CacheHits)/float64(m.CacheHits+m.CacheMisses), "cache_hit_ratio")
	}
	if m.Completed > 0 && m.QuoteSigns > 0 {
		b.ReportMetric(float64(m.QuoteSigns)/float64(m.Completed), "signs_per_job")
	}
}

// benchQuoteChip builds a bare chip with n sePCR registers for the quote
// microbenchmarks.
func benchQuoteChip(b *testing.B, n int) *tpm.TPM {
	b.Helper()
	clock := sim.NewClock()
	chip, err := tpm.New(clock, lpc.NewBus(clock, lpc.FullSpeed()),
		tpm.Config{KeyBits: 1024, Seed: 42, NumSePCRs: n})
	if err != nil {
		b.Fatal(err)
	}
	return chip
}

// quoteBatchSizes are the batch widths the single-vs-batch comparison
// sweeps; width 1 is the one-signature-per-job baseline.
var quoteBatchSizes = []int{1, 4, 8}

// BenchmarkTPM_QuoteBatch measures the amortization the batched quote
// buys at the chip level: each iteration parks `size` registers in the
// Quote state and attests all of them. Width 1 uses the one-shot
// TPM_Quote (one RSA signature per job); wider batches pay one signature
// over the Merkle root for the whole set, so ns/op grows far slower than
// linearly in the width. Nonces vary per iteration so the signature memo
// cannot short-circuit the RSA operation being measured.
func BenchmarkTPM_QuoteBatch(b *testing.B) {
	for _, size := range quoteBatchSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			chip := benchQuoteChip(b, size)
			meas := tpm.Measure([]byte("bench-pal"))
			park := func() []int {
				handles := make([]int, size)
				for i := 0; i < size; i++ {
					h, err := chip.AllocateSePCR(i, meas)
					if err != nil {
						b.Fatal(err)
					}
					if err := chip.ReleaseSePCR(h, i); err != nil {
						b.Fatal(err)
					}
					handles[i] = h
				}
				return handles
			}
			nonce := make([]byte, 12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handles := park()
				binary.BigEndian.PutUint64(nonce, uint64(i))
				if size == 1 {
					if _, err := chip.QuoteSePCR(handles[0], nonce); err != nil {
						b.Fatal(err)
					}
					continue
				}
				reqs := make([]tpm.BatchRequest, size)
				for j, h := range handles {
					jn := make([]byte, 12)
					binary.BigEndian.PutUint64(jn, uint64(i))
					jn[8] = byte(j)
					reqs[j] = tpm.BatchRequest{Handle: h, Nonce: jn}
				}
				if _, err := chip.QuoteSePCRBatch(reqs, nonce, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "jobs_per_sign")
		})
	}
}

// BenchmarkService_NoAttest isolates the execution path: same pipeline but
// the sePCR is freed unquoted, skipping quote generation and RSA
// verification.
func BenchmarkService_NoAttest(b *testing.B) {
	s := benchService(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(palsvc.Job{Name: "bench", Source: benchPAL, NoAttest: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
