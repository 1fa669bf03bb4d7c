package main

import (
	"fmt"
	"sort"
	"time"
)

// Layers of the layer table, named after the repository's modules.
// Unattributed is host time inside the request that no stage span covers.
const (
	layerWire = iota
	layerCluster
	layerPalsvc
	layerSksm
	layerCPU
	layerTPM
	layerAttest
	layerUnattributed
	nLayers
)

var layerNames = [nLayers]string{"wire", "cluster", "palsvc", "sksm", "cpu", "tpm", "attest", "unattributed"}

// layerOf assigns a span's self time to a layer. Container spans whose
// self time is only the gaps between their stages (the job root) count as
// unattributed; the slice span's self time is the simulated CPU running
// the PAL, since its children are the sksm launch/suspend instructions.
func layerOf(r *record) int {
	switch {
	case r.Cat == "cluster":
		return layerCluster
	case r.Name == "job":
		return layerUnattributed
	case r.Name == "verify":
		return layerAttest
	case r.Cat == "pipeline":
		return layerPalsvc
	case r.Name == "slice":
		return layerCPU
	case r.Cat == "sksm":
		return layerSksm
	case r.Cat == "tpm":
		return layerTPM
	}
	return layerUnattributed
}

// jobSpans is one traced job reduced to host nanoseconds per layer and
// the per-layer counts the table reports.
type jobSpans struct {
	complete bool
	lost     int // records the daemons cut from the dump
	// ringDropped is the daemon's lifetime count of span records its ring
	// overwrote, as of this fetch. With one job sampled per fetch the ring
	// overwrites unsampled jobs' records all the time; only lost says
	// whether a sampled job's spans were missing.
	ringDropped uint64

	layers [nLayers]float64

	routeSelf, hop             float64
	forwards                   int
	queue, admit, arb, verify  float64
	linger                     float64
	slaunchSelf                float64
	slaunches, resumes, slices int
	sliceDur                   float64
	tpmQuote, tpmOther         float64
	execHost                   float64
}

// add sums o's times and counts into js.
func (js *jobSpans) add(o *jobSpans) {
	for i, v := range o.layers {
		js.layers[i] += v
	}
	js.routeSelf += o.routeSelf
	js.hop += o.hop
	js.forwards += o.forwards
	js.queue += o.queue
	js.admit += o.admit
	js.arb += o.arb
	js.verify += o.verify
	js.linger += o.linger
	js.slaunchSelf += o.slaunchSelf
	js.slaunches += o.slaunches
	js.resumes += o.resumes
	js.slices += o.slices
	js.sliceDur += o.sliceDur
	js.tpmQuote += o.tpmQuote
	js.tpmOther += o.tpmOther
	js.execHost += o.execHost
}

// fetchSpans pulls one job's spans through the trace op and reduces them.
// The dump is filtered to the job's trace, so it stays under the op's
// 2048-record cap even for preempt-compute's ~1600 records per job.
func fetchSpans(c *conn, traceID string, rtt time.Duration) (*jobSpans, error) {
	r, err := c.call(&request{Op: "trace", TraceID: traceID})
	if err != nil {
		return nil, err
	}
	if r.Trace == nil {
		return nil, fmt.Errorf("trace op answered without a dump")
	}
	js := analyzeSpans(r.Trace.Records, rtt)
	js.lost += r.Trace.Truncated
	js.ringDropped = r.Trace.Dropped
	return js, nil
}

// span is a record placed in its trace's tree.
type span struct {
	*record
	children []*span
}

func (s *span) end() int64 { return s.WallStart + s.WallDur }

// selfTime is the span's duration minus the part its children cover.
// Children on the span's own node are merged as intervals, so overlapping
// children count once. A child on another node (a backend's job span under
// the router's forward span) sits on a clock aligned only by an RTT
// estimate, so it is subtracted by duration instead.
func selfTime(s *span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	var remote int64
	for _, c := range s.children {
		if c.Node != s.Node {
			remote += c.WallDur
			continue
		}
		a, b := c.WallStart, c.end()
		if a < s.WallStart {
			a = s.WallStart
		}
		if b > s.end() {
			b = s.end()
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	self := s.WallDur - covered - remote
	if self < 0 {
		self = 0
	}
	return self
}

// analyzeSpans reduces one job's records. rtt is the benchmark's own span
// around the request (send start to decoded response); the server's top
// span (the router's route, or palservd's job) is its child, and the rest
// of the rtt is the wire: encode, TCP and decode on both ends.
func analyzeSpans(recs []record, rtt time.Duration) *jobSpans {
	js := &jobSpans{}
	byID := map[uint64]*span{}
	var all []*span
	for i := range recs {
		r := &recs[i]
		if r.Kind != "span" || r.Cat == "sepcr" {
			// Events have no duration; sePCR lifecycle spans track a
			// register's state across stages rather than work done.
			continue
		}
		s := &span{record: r}
		byID[r.ID] = s
		all = append(all, s)
	}
	var top *span
	names := map[string]int{}
	for _, s := range all {
		names[s.Name]++
		if p := byID[s.Parent]; p != nil && p != s {
			p.children = append(p.children, s)
		} else if s.Parent == clientSpan {
			top = s
		}
	}
	// The ring overwrites oldest-first and a job's queue span is the first
	// record palservd appends for it (forward is the router's first), so
	// their presence proves nothing older of this job was lost.
	js.complete = top != nil && names["job"] > 0 && names["queue"] > 0 &&
		(top.Name != "route" || names["forward"] > 0)
	if !js.complete {
		js.lost++
		return js
	}
	wire := float64(rtt.Nanoseconds() - top.WallDur)
	if wire < 0 {
		wire = 0
	}
	js.layers[layerWire] = wire

	var execEnd int64
	var quoteStart int64 = -1
	for _, s := range all {
		self := float64(selfTime(s))
		js.layers[layerOf(s.record)] += self
		d := float64(s.WallDur)
		switch s.Name {
		case "route":
			js.routeSelf += self
		case "forward":
			js.hop += self
			js.forwards++
		case "queue":
			js.queue += d
		case "admit":
			js.admit += d
		case "arb_wait":
			js.arb += d
		case "verify":
			js.verify += d
		case "execute":
			js.execHost += d
			execEnd = s.end()
		case "quote":
			if quoteStart < 0 || s.WallStart < quoteStart {
				quoteStart = s.WallStart
			}
		case "SLAUNCH":
			js.slaunchSelf += self
			js.slaunches++
			if s.attr("from") == "Suspend" {
				js.resumes++
			}
		case "slice":
			js.slices++
			js.sliceDur += d
		}
		if s.Cat == "tpm" {
			if s.Name == "TPM_Quote" {
				js.tpmQuote += self
			} else {
				js.tpmOther += self
			}
		}
	}
	// The quote batcher's linger sits between the execute and quote spans,
	// inside the job root's self time: move it to the palsvc row.
	if quoteStart >= 0 && execEnd > 0 && quoteStart > execEnd {
		l := float64(quoteStart - execEnd)
		if l > js.layers[layerUnattributed] {
			l = js.layers[layerUnattributed]
		}
		js.linger = l
		js.layers[layerUnattributed] -= l
		js.layers[layerPalsvc] += l
	}
	return js
}
