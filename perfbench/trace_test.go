package main

import (
	"math"
	"testing"
	"time"
)

func rec(id, parent uint64, name, cat, node string, start, dur int64) record {
	return record{Kind: "span", ID: id, Parent: parent, Name: name, Cat: cat, Node: node,
		WallStart: start, WallDur: dur}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	parent := &span{record: &record{WallStart: 0, WallDur: 100}}
	for _, c := range []record{
		{WallStart: 10, WallDur: 20},  // [10,30)
		{WallStart: 20, WallDur: 20},  // [20,40) overlaps the first
		{WallStart: 35, WallDur: 5},   // inside the second
		{WallStart: 90, WallDur: 30},  // sticks out: only [90,100) counts
		{WallStart: -10, WallDur: 15}, // starts early: only [0,5) counts
	} {
		c := c
		parent.children = append(parent.children, &span{record: &c})
	}
	// Covered: [0,5) + [10,40) + [90,100) = 45.
	if got := selfTime(parent); got != 55 {
		t.Fatalf("selfTime = %d, want 55", got)
	}
}

func TestSelfTimeSubtractsRemoteChildByDuration(t *testing.T) {
	fwd := &span{record: &record{WallStart: 1000, WallDur: 300, Node: "router"}}
	// The backend's clock estimate places its job span partly outside the
	// forward span; its duration still counts whole.
	job := record{WallStart: 1200, WallDur: 250, Node: "127.0.0.1:9"}
	fwd.children = []*span{{record: &job}}
	if got := selfTime(fwd); got != 50 {
		t.Fatalf("selfTime = %d, want 50", got)
	}
}

func TestAnalyzeSpansLayerTable(t *testing.T) {
	const us = 1000
	recs := []record{
		rec(10, clientSpan, "job", "pipeline", "", 0, 1000*us),
		rec(11, 10, "queue", "pipeline", "", 0, 50*us),
		rec(12, 10, "admit", "pipeline", "", 60*us, 10*us),
		rec(13, 10, "arb_wait", "pipeline", "", 70*us, 5*us),
		rec(14, 10, "execute", "pipeline", "", 80*us, 200*us),
		rec(15, 14, "slice", "sksm", "", 90*us, 150*us),
		rec(16, 15, "SLAUNCH", "sksm", "", 90*us, 30*us),
		rec(17, 16, "TPM_SEPCR_Alloc", "tpm", "", 100*us, 10*us),
		rec(18, 15, "SFREE", "sksm", "", 200*us, 20*us),
		rec(19, 10, "quote", "pipeline", "", 400*us, 300*us),
		rec(20, 19, "TPM_Quote", "tpm", "", 410*us, 250*us),
		rec(21, 10, "verify", "pipeline", "", 720*us, 100*us),
		{Kind: "event", ID: 22, Parent: 15, Name: "preempt", Cat: "sksm", WallStart: 150 * us},
		rec(23, 16, "sePCR.Exclusive", "sepcr", "", 95*us, 500*us),
	}
	js := analyzeSpans(recs, 1200*time.Microsecond)
	if !js.complete || js.lost != 0 {
		t.Fatalf("complete=%v lost=%d, want a complete trace", js.complete, js.lost)
	}
	want := map[int]float64{
		layerWire:    200,                         // rtt 1200 - job 1000
		layerPalsvc:  50 + 10 + 5 + 50 + 50 + 120, // queue, admit, arb, execute self, quote self, linger 280→400
		layerSksm:    20 + 20,                     // SLAUNCH self, SFREE
		layerCPU:     100,                         // slice 150 - SLAUNCH 30 - SFREE 20
		layerTPM:     10 + 250,                    // Alloc, Quote
		layerAttest:  100,                         // verify
		layerCluster: 0,
		// Job self: 1000 - union of stages (50+10+5+200+300+100 = 665) = 335,
		// minus the 120us between execute's end and quote's start.
		layerUnattributed: 335 - 120,
	}
	var sum float64
	for l, w := range want {
		if got := js.layers[l] / us; math.Abs(got-w) > 1e-9 {
			t.Errorf("layer %s = %vus, want %vus", layerNames[l], got, w)
		}
	}
	for _, v := range js.layers {
		sum += v
	}
	if sum != 1200*us {
		t.Errorf("layers sum to %vns, want the 1200us round trip", sum)
	}
	if js.slices != 1 || js.slaunches != 1 || js.linger != 120*us || js.tpmQuote != 250*us {
		t.Errorf("counts: slices=%d slaunches=%d linger=%v tpmQuote=%v", js.slices, js.slaunches, js.linger, js.tpmQuote)
	}
}

func TestAnalyzeSpansFlagsIncompleteTrace(t *testing.T) {
	// The ring overwrote the job's oldest record (its queue span).
	recs := []record{
		rec(10, clientSpan, "job", "pipeline", "", 0, 100),
		rec(12, 10, "admit", "pipeline", "", 10, 10),
	}
	if js := analyzeSpans(recs, time.Microsecond); js.complete || js.lost != 1 {
		t.Fatalf("complete=%v lost=%d, want an incomplete trace counted as lost", js.complete, js.lost)
	}
}
