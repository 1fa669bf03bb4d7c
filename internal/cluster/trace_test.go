package cluster

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"minimaltcb/internal/obs"
	"minimaltcb/internal/palsvc"
)

// tracedBackend is startBackend with a node-scoped tracer installed, the
// way a real palservd process runs (cmd/palservd calls SetNode at boot).
func tracedBackend(t *testing.T, node uint64) (*palsvc.Service, *killableListener, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer(0)
	tr.SetNode(node)
	s, kl := startBackend(t, palsvc.Config{Tracer: tr})
	return s, kl, tr
}

// TestClusterTraceStitch is the tentpole integration test: one tenant job
// routed across a 3-backend fleet with a mid-walk failover, then stitched
// from every node's ring into a single skew-corrected trace. The stitched
// timeline must hold the router's route/forward spans and failover event,
// the serving backend's pipeline spans, and the sksm/tpm spans below them —
// all under one trace ID, with every child interval nested inside its
// parent's after clock correction.
func TestClusterTraceStitch(t *testing.T) {
	_, klA, _ := tracedBackend(t, 0x11)
	_, klB, _ := tracedBackend(t, 0x22)
	_, klC, _ := tracedBackend(t, 0x33)
	addrs := []string{klA.Addr().String(), klB.Addr().String(), klC.Addr().String()}

	tracer := obs.NewTracer(0)
	tracer.SetNode(0xAA)
	reg := obs.NewRegistry()
	slo := obs.NewSLOTracker(obs.SLOConfig{})
	r := newTestRouter(t, addrs, func(c *Config) {
		c.Tracer = tracer
		c.SLO = slo
		c.Registry = reg
		// Slow probes: the killed primary must still be in the ring when
		// the request walks it, so the failover happens on the request
		// path, not in a prober.
		c.ProbeInterval = 500 * time.Millisecond
	})
	addr := serveRouter(t, r)

	src := sourceForPrimary(t, r, addrs[0])
	klA.Kill() // the primary dies before the job arrives: mid-walk failover

	cl, err := palsvc.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Run(&palsvc.WireRequest{Name: "stitch", Source: src, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("routed run failed: %s", resp.Err)
	}
	if resp.Backend == addrs[0] {
		t.Fatal("job answered by the killed primary")
	}
	id, err := obs.ParseTraceID(resp.TraceID)
	if err != nil || id.IsZero() {
		t.Fatalf("echoed trace %q does not parse: %v", resp.TraceID, err)
	}

	dump, err := r.StitchTrace(resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	recs := dump.Records
	if len(recs) == 0 {
		t.Fatal("stitched dump is empty")
	}

	nodes := map[string]bool{}
	var (
		routeSpans, fwdOK, fwdErr int
		failoverEvents            int
		pipeline                  = map[string]bool{}
		sawSksm, sawTpm           bool
	)
	attr := func(rec obs.Record, key string) string {
		for _, a := range rec.Attrs {
			if a.Key == key {
				return a.Val
			}
		}
		return ""
	}
	for _, rec := range recs {
		if rec.Trace != id {
			t.Fatalf("stitched dump leaked trace %v (want only %v)", rec.Trace, id)
		}
		if rec.Node == "" {
			t.Fatalf("record %s/%s not tagged with a node", rec.Cat, rec.Name)
		}
		nodes[rec.Node] = true
		switch {
		case rec.Cat == "cluster" && rec.Name == "route":
			routeSpans++
		case rec.Cat == "cluster" && rec.Name == "forward":
			switch attr(rec, "outcome") {
			case "ok":
				fwdOK++
				if attr(rec, "backend") != resp.Backend {
					t.Fatalf("forward ok span backend %q, want %q", attr(rec, "backend"), resp.Backend)
				}
			case "transport_error":
				fwdErr++
				if attr(rec, "backend") != addrs[0] {
					t.Fatalf("transport_error forward backend %q, want the killed %q", attr(rec, "backend"), addrs[0])
				}
			}
		case rec.Cat == "cluster" && rec.Name == "failover" && rec.Kind == obs.KindEvent:
			failoverEvents++
		case rec.Cat == "pipeline" && rec.Kind == obs.KindSpan:
			pipeline[rec.Name] = true
		case rec.Cat == "sksm":
			sawSksm = true
		case rec.Cat == "tpm":
			sawTpm = true
		}
	}
	if !nodes["router"] || !nodes[resp.Backend] {
		t.Fatalf("stitched nodes %v, want router and %s", nodes, resp.Backend)
	}
	if routeSpans != 1 || fwdOK != 1 || fwdErr != 1 || failoverEvents != 1 {
		t.Fatalf("router spans route=%d forward(ok)=%d forward(transport_error)=%d failover=%d, want 1 each",
			routeSpans, fwdOK, fwdErr, failoverEvents)
	}
	for _, stage := range []string{"job", "execute", "quote", "verify"} {
		if !pipeline[stage] {
			t.Fatalf("stitched trace lacks pipeline span %q (have %v)", stage, pipeline)
		}
	}
	if !sawSksm || !sawTpm {
		t.Fatalf("stitched trace lacks hardware spans: sksm=%v tpm=%v", sawSksm, sawTpm)
	}

	// Every parent link must resolve across process boundaries, and after
	// skew correction each child interval must nest inside its parent's.
	spans := map[uint64]obs.Record{}
	for _, rec := range recs {
		if rec.Kind == obs.KindSpan {
			spans[rec.ID] = rec
		}
	}
	const eps = int64(5 * time.Millisecond)
	for _, rec := range recs {
		if rec.Parent == 0 {
			continue
		}
		p, ok := spans[rec.Parent]
		if !ok {
			t.Fatalf("%s/%s has dangling parent %d", rec.Cat, rec.Name, rec.Parent)
		}
		if rec.WallStart < p.WallStart-eps {
			t.Fatalf("%s/%s starts %v before its parent %s/%s", rec.Cat, rec.Name,
				time.Duration(p.WallStart-rec.WallStart), p.Cat, p.Name)
		}
		if rec.Kind == obs.KindSpan {
			end, pend := rec.WallStart+rec.WallDur, p.WallStart+p.WallDur
			if end > pend+eps {
				t.Fatalf("%s/%s ends %v after its parent %s/%s", rec.Cat, rec.Name,
					time.Duration(end-pend), p.Cat, p.Name)
			}
		}
	}

	// The SLO tracker saw the routed request under its wire tenant, with
	// the trace as its latency exemplar, and the bound registry exposes
	// the burn-rate gauges plus the OpenMetrics exemplar on p99.
	snap := slo.Snapshot()
	var acme *obs.TenantSLO
	for i := range snap.Tenants {
		if snap.Tenants[i].Tenant == "acme" {
			acme = &snap.Tenants[i]
		}
	}
	if acme == nil || acme.Requests != 1 {
		t.Fatalf("SLO snapshot missing tenant acme: %+v", snap.Tenants)
	}
	if acme.P99Trace != resp.TraceID {
		t.Fatalf("p99 exemplar %q, want %q", acme.P99Trace, resp.TraceID)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`cluster_slo_burn_rate{tenant="acme",window="1m0s"}`,
		`cluster_slo_requests_total{tenant="acme"} 1`,
		`# {trace_id="` + resp.TraceID + `"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// legacyBackend is the wire shape of a pre-trace palservd: it answers ping,
// stats, and run (ignoring the trace/tenant fields an old decoder drops as
// unknown keys), and reports an unknown op for health and trace.
func legacyBackend(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		_ = palsvc.ServeWire(l, 0, func(req *palsvc.WireRequest) *palsvc.WireResponse {
			switch req.Op {
			case palsvc.OpPing:
				return &palsvc.WireResponse{OK: true}
			case palsvc.OpStats:
				return &palsvc.WireResponse{OK: true, Stats: &palsvc.Metrics{}}
			case palsvc.OpRun:
				return &palsvc.WireResponse{OK: true, Output: []byte("legacy")}
			default:
				return &palsvc.WireResponse{Err: `palsvc: unknown op "` + req.Op + `"`}
			}
		})
	}()
	return l.Addr().String()
}

// TestClusterTraceOldBackendCompat: a traced router over an old backend
// still routes (the backend drops the propagated fields), still hands the
// tenant a trace ID (the router's own spans exist even if the backend's
// don't), and StitchTrace degrades to the nodes that answered instead of
// failing outright.
func TestClusterTraceOldBackendCompat(t *testing.T) {
	legacy := legacyBackend(t)
	tracer := obs.NewTracer(0)
	tracer.SetNode(0xBB)
	r := newTestRouter(t, []string{legacy}, func(c *Config) {
		c.Tracer = tracer
		c.SLO = obs.NewSLOTracker(obs.SLOConfig{})
		c.ProbeInterval = time.Second
	})
	addr := serveRouter(t, r)

	cl, err := palsvc.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Run(&palsvc.WireRequest{Name: "old", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("run via old backend failed: %s", resp.Err)
	}
	if resp.TraceID == "" {
		t.Fatal("router did not stamp its trace onto an old backend's answer")
	}

	dump, err := r.StitchTrace(resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) == 0 {
		t.Fatal("stitch over an old fleet lost the router's own spans")
	}
	for _, rec := range dump.Records {
		if rec.Node != "router" {
			t.Fatalf("old backend contributed record %s/%s from node %q", rec.Cat, rec.Name, rec.Node)
		}
	}
}
