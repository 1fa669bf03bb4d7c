package palsvc

import (
	"net"
	"testing"
	"time"

	"minimaltcb/internal/obs"
)

// startTracedServer is startServer with a live tracer installed.
func startTracedServer(t *testing.T) (*Service, *obs.Tracer, string) {
	t.Helper()
	tracer := obs.NewTracer(0)
	s, addr := startServer(t, Config{Tracer: tracer})
	return s, tracer, addr
}

// TestWireTracePropagation: a run request carrying a trace context must run
// the job's pipeline spans under that exact trace, nested under the given
// parent span, and echo the trace ID back.
func TestWireTracePropagation(t *testing.T) {
	_, tracer, addr := startTracedServer(t)
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	want := obs.TraceID{Hi: 0xabcdef0123456789, Lo: 42}
	resp, err := cl.Run(&WireRequest{
		Name: "hello", Source: helloSource,
		TraceID: want.String(), ParentSpan: 777, Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("run failed: %s", resp.Err)
	}
	if resp.TraceID != want.String() {
		t.Fatalf("echoed trace %q, want %q", resp.TraceID, want)
	}
	recs, _ := tracer.Snapshot()
	recs = obs.FilterTrace(recs, want)
	if len(recs) == 0 {
		t.Fatal("no spans recorded under the propagated trace")
	}
	var job *obs.Record
	for i := range recs {
		if recs[i].Name == "job" && recs[i].Cat == "pipeline" {
			job = &recs[i]
		}
	}
	if job == nil {
		t.Fatalf("no job span under propagated trace (got %d records)", len(recs))
	}
	if job.Parent != 777 {
		t.Fatalf("job span parent %d, want the propagated 777", job.Parent)
	}
	var tenant string
	for _, a := range job.Attrs {
		if a.Key == "tenant" {
			tenant = a.Val
		}
	}
	if tenant != "acme" {
		t.Fatalf("job span tenant attr %q, want %q", tenant, "acme")
	}
}

// TestWireTraceRootSynthesized: an old-style run request without trace
// fields against a traced server mints a fresh root and still echoes it —
// forward compatibility for old clients.
func TestWireTraceRootSynthesized(t *testing.T) {
	_, tracer, addr := startTracedServer(t)
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Run(&WireRequest{Name: "hello", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("run failed: %s", resp.Err)
	}
	if resp.TraceID == "" {
		t.Fatal("traced server did not echo a synthesized root trace")
	}
	id, err := obs.ParseTraceID(resp.TraceID)
	if err != nil || id.IsZero() {
		t.Fatalf("echoed trace %q does not parse: %v", resp.TraceID, err)
	}
	recs, _ := tracer.Snapshot()
	if len(obs.FilterTrace(recs, id)) == 0 {
		t.Fatalf("no spans under the synthesized root %s", id)
	}
}

// TestWireTraceOpDump: the trace op returns the ring with a clock sample,
// honors the trace filter, and rejects malformed filters.
func TestWireTraceOpDump(t *testing.T) {
	_, _, addr := startTracedServer(t)
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Run(&WireRequest{Name: "hello", Source: helloSource})
	if err != nil || !resp.OK {
		t.Fatalf("run: %v %s", err, resp.Err)
	}
	dump, offset, err := cl.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) == 0 {
		t.Fatal("empty trace dump after a traced run")
	}
	if dump.NowNS == 0 {
		t.Fatal("trace dump carries no clock sample")
	}
	// Same process, same clock: the RTT-midpoint estimate must be tiny.
	if offset < -time.Second || offset > time.Second {
		t.Fatalf("same-process clock offset estimate %v", offset)
	}
	filtered, _, err := cl.Trace(resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Records) == 0 {
		t.Fatal("filtered dump lost the run's spans")
	}
	id, _ := obs.ParseTraceID(resp.TraceID)
	for _, r := range filtered.Records {
		if r.Trace != id {
			t.Fatalf("filtered dump leaked trace %v (want only %v)", r.Trace, id)
		}
	}
	if _, _, err := cl.Trace("not-a-trace-id!"); err == nil {
		t.Fatal("malformed trace filter accepted")
	}
}

// legacyServer mimics a pre-trace palservd build: it ignores the trace
// fields (an old binary's decoder drops them as unknown keys), answers run
// with a canned success, and reports an unknown op for everything it
// postdates.
func legacyServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		_ = ServeWire(l, 0, func(req *WireRequest) *WireResponse {
			if req.Op == OpRun {
				return &WireResponse{OK: true, Output: []byte(req.Name)}
			}
			return &WireResponse{Err: `palsvc: unknown op "` + req.Op + `"`}
		})
	}()
	return l.Addr().String()
}

// TestWireTraceFieldsIgnoredByOldServer: a new client sending trace context
// to an old server still gets its answer — the extra JSON fields are
// silently dropped and no trace ID comes back. Backward compatibility in
// the new-client → old-server direction.
func TestWireTraceFieldsIgnoredByOldServer(t *testing.T) {
	addr := legacyServer(t)
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Run(&WireRequest{
		Name: "legacy", Source: helloSource,
		TraceID: "00000000000000010000000000000002", ParentSpan: 9, Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("old server rejected a traced request: %s", resp.Err)
	}
	if resp.TraceID != "" {
		t.Fatalf("old server echoed a trace ID %q", resp.TraceID)
	}
}

// TestWireTraceOpOldServerGraceful: Client.Trace against a pre-trace build
// surfaces the unknown-op answer as a plain error, not a panic or a hang.
func TestWireTraceOpOldServerGraceful(t *testing.T) {
	addr := legacyServer(t)
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Trace(""); err == nil {
		t.Fatal("trace op against an old server succeeded")
	}
}

// TestTracingDisabledAllocFree pins the disabled observability path at zero
// allocations: parsing the (absent) wire trace context, the nil-tracer span
// handles around the job pipeline, and the nil SLO tracker must all compile
// down to nil checks. This is the contract that lets the instrumentation
// stay in the hot path unconditionally.
func TestTracingDisabledAllocFree(t *testing.T) {
	var tracer *obs.Tracer
	var slo *obs.SLOTracker
	req := &WireRequest{Op: OpRun, Name: "hot", Source: "src"}
	allocs := testing.AllocsPerRun(200, func() {
		ctx := req.TraceContext()
		sp := tracer.StartSpan(ctx, "job", "pipeline")
		sp.Attr("name", req.Name)
		sp.AttrInt("attempt", 1)
		child := tracer.StartSpan(sp.Context(), "execute", "pipeline")
		child.End()
		sp.End()
		slo.Observe(req.Name, time.Millisecond, false, ctx.Trace)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing/SLO path allocates %.1f per op, want 0", allocs)
	}
}
