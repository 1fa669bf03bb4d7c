package sksm

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/pal"
	"minimaltcb/internal/tpm"
)

// sumPALSource loops enough to exercise the decode cache, then outputs the
// accumulated sum and exits.
const sumPALSource = `
	ldi	r1, sum
	ldi	r0, 0
	ldi	r2, 10
	ldi	r3, 0
loop:
	addi	r3, 1
	add	r0, r3
	cmp	r3, r2
	jnz	loop
	store	r0, [r1]
	ldi	r0, sum
	ldi	r1, 4
	svc	6		; output the sum
	ldi	r0, 0
	svc	0
sum:	.word 0
stack:	.space 64
`

func attrValue(r obs.Record, key string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// measureAttrRuns numbers TestSLAUNCHMeasureCacheAttr's invocations, so
// each one (go test -count=N runs it N times in one process) builds an
// image the process-wide measurement cache has not seen.
var measureAttrRuns atomic.Uint32

// TestSLAUNCHMeasureCacheAttr launches the same image twice and checks the
// trace records the measurement-cache outcome: miss on the first launch of
// a fresh image, hit on the relaunch.
func TestSLAUNCHMeasureCacheAttr(t *testing.T) {
	mg := newManager(t, 2)
	tracer := obs.NewTracer(1024)
	mg.Trace = obs.NewScope(tracer, mg.Kernel.Machine.Clock)
	core := mg.Kernel.Machine.CPUs[1]

	// A source string unique to this test and invocation, so no earlier
	// launch has already warmed the process-wide measurement memo for
	// these bytes.
	im := pal.MustBuild(fmt.Sprintf("ldi r0, 30911\nldi r1, %d\nldi r0, 0\nsvc 0", measureAttrRuns.Add(1)))
	for i := 0; i < 2; i++ {
		s, err := mg.NewSECB(im, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := mg.RunToCompletion(core, s); err != nil {
			t.Fatal(err)
		}
		if err := mg.Kernel.Machine.TPM().FreeSePCR(s.SePCRHandle); err != nil {
			t.Fatal(err)
		}
		if err := mg.Release(s); err != nil {
			t.Fatal(err)
		}
	}

	recs, _ := tracer.Snapshot()
	var outcomes []string
	for _, r := range recs {
		if r.Name != "SLAUNCH" {
			continue
		}
		if v, ok := attrValue(r, "measure_cache"); ok {
			outcomes = append(outcomes, v)
		}
	}
	if len(outcomes) != 2 {
		t.Fatalf("got %d SLAUNCH spans with measure_cache, want 2 (records: %+v)", len(outcomes), recs)
	}
	if outcomes[0] != "miss" {
		t.Errorf("first launch measure_cache = %q, want miss", outcomes[0])
	}
	if outcomes[1] != "hit" {
		t.Errorf("relaunch measure_cache = %q, want hit", outcomes[1])
	}
}

// TestLaunchStateIndependentOfDecodeCache runs a looping PAL through the
// full launch pipeline with the decode cache on and off: the measurement,
// output, and exit status must be identical — the cache is a simulator
// optimization with no architectural footprint.
func TestLaunchStateIndependentOfDecodeCache(t *testing.T) {
	run := func(cacheOn bool) (tpm.Digest, []byte, uint32) {
		t.Helper()
		mg := newManager(t, 1)
		core := mg.Kernel.Machine.CPUs[1]
		core.SetDecodeCache(cacheOn)
		s, err := mg.NewSECB(pal.MustBuild(sumPALSource), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := mg.RunToCompletion(core, s); err != nil {
			t.Fatal(err)
		}
		return s.Measurement, s.Output, s.ExitStatus
	}
	mOn, outOn, stOn := run(true)
	mOff, outOff, stOff := run(false)
	if mOn != mOff {
		t.Errorf("measurements diverge: cached %x, slow %x", mOn, mOff)
	}
	if !bytes.Equal(outOn, outOff) {
		t.Errorf("outputs diverge: cached %v, slow %v", outOn, outOff)
	}
	if stOn != stOff {
		t.Errorf("exit status diverges: cached %d, slow %d", stOn, stOff)
	}
	if len(outOn) != 4 || outOn[0] != 55 { // 1+2+…+10
		t.Errorf("sum PAL output %v, want [55 0 0 0]", outOn)
	}
}
