package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"minimaltcb/internal/audit"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/palsvc"
)

// Config assembles a Router.
type Config struct {
	// Backends are the palservd addresses the router shards across. At
	// least one is required.
	Backends []string
	// VNodes is the consistent-hash virtual-node count per backend
	// (0 = DefaultVNodes).
	VNodes int
	// StealDepth bounds work stealing: a job saturated off its primary may
	// try up to this many further ring successors before the router sheds
	// it. 0 defaults to len(Backends)-1 (the whole ring); negative
	// disables stealing entirely.
	StealDepth int
	// PoolSize is the idle-connection pool per backend; default 8.
	PoolSize int
	// DialTimeout bounds backend dial+handshake; default 2s.
	DialTimeout time.Duration
	// RequestTimeout bounds each forwarded round trip; default 30s. This
	// is the lever that turns a wedged backend into a fast failover
	// instead of a hung tenant.
	RequestTimeout time.Duration
	// ProbeInterval is the health-prober period per backend; default
	// 100ms.
	ProbeInterval time.Duration
	// ProbeFails is the consecutive-transport-failure threshold (probe or
	// request) that marks a backend Down and drains it from the ring;
	// default 3.
	ProbeFails int
	// Registry, when non-nil, receives the router's cluster-level
	// instruments (see bindRegistry in metrics.go).
	Registry *obs.Registry
	// Tracer, when non-nil, records routing spans: one "route" span per
	// run request with a "forward" child per placement attempt, plus
	// "steal"/"failover" events as the walk continues past a backend. The
	// router adopts the tenant's propagated trace context (or mints a
	// root) and forwards it to backends, so a stitched cluster trace shows
	// the whole path. The trace wire op answers with a stitched
	// multi-node dump (see StitchTrace). Nil keeps routing unchanged and
	// passes tenant trace fields through verbatim.
	Tracer *obs.Tracer
	// SLO, when non-nil, accrues per-tenant burn-rate accounting at the
	// routing layer: every terminal answer (and every shed) is one
	// observation against the tenant's error budget, timed end-to-end as
	// the tenant experiences it. Bound to Registry under the "cluster"
	// prefix.
	SLO *obs.SLOTracker
	// Audit, when non-nil, is the router's own control-plane audit log: it
	// records cluster-level shed decisions (the only trust-relevant event
	// the router itself originates — a refusal to run work) and anchors the
	// fleet view the audit wire op answers with. Router heads are unsigned
	// (the router has no TPM); per-backend heads stay AIK-signed by their
	// own nodes. Nil disables router auditing.
	Audit *audit.Log
}

// fleetAuditSlice bounds how many audit events FleetAudit takes from the
// router's own log and from each backend's.
const fleetAuditSlice = 256

// ErrNoBackends is returned by New for an empty backend list.
var ErrNoBackends = errors.New("cluster: no backends configured")

// Router fronts a fleet of palservd backends with the palservd wire
// protocol: clients dial it exactly as they would a single server.
type Router struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	byAddr   map[string]*backend
	metrics  *metrics
	auditRec *audit.Recorder // nil when Config.Audit is nil

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// New validates cfg, builds the ring with every backend live, and starts
// one prober per backend. Backends that are down at start are detected and
// drained by their probers within ProbeFails*ProbeInterval.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, ErrNoBackends
	}
	if cfg.StealDepth == 0 {
		cfg.StealDepth = len(cfg.Backends) - 1
	}
	if cfg.StealDepth < 0 {
		cfg.StealDepth = 0
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 8
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	if cfg.ProbeFails <= 0 {
		cfg.ProbeFails = 3
	}
	r := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.VNodes),
		byAddr:  make(map[string]*backend, len(cfg.Backends)),
		metrics: &metrics{},
		stop:    make(chan struct{}),
	}
	for _, addr := range cfg.Backends {
		if _, dup := r.byAddr[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %s", addr)
		}
		b := newBackend(addr, cfg.PoolSize, cfg.DialTimeout, cfg.RequestTimeout)
		r.backends = append(r.backends, b)
		r.byAddr[addr] = b
		// Optimistic start: every backend begins in the ring so the first
		// requests don't wait a probe cycle; a dead one costs its prober
		// ProbeFails intervals and its requesters one transport error each
		// (which steal onward) before it drains.
		r.ring.Add(addr)
	}
	r.auditRec = cfg.Audit.Recorder(nil, -1)
	r.bindRegistry(cfg.Registry)
	cfg.SLO.Bind(cfg.Registry, "cluster")
	for _, b := range r.backends {
		r.wg.Add(1)
		go r.probe(b)
	}
	return r, nil
}

// Close stops the probers and closes every pooled connection.
func (r *Router) Close() {
	r.closeMu.Lock()
	if r.closed {
		r.closeMu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	r.closeMu.Unlock()
	r.wg.Wait()
	for _, b := range r.backends {
		b.drainPool()
	}
}

// Backends returns the configured backend addresses.
func (r *Router) Backends() []string { return append([]string(nil), r.cfg.Backends...) }

// Ring exposes the live ring (tests and /debug/cluster use it).
func (r *Router) Ring() *Ring { return r.ring }

// Placement returns the failover chain (primary first) the router would
// walk for a job with the given source right now.
func (r *Router) Placement(source string) []string {
	return r.ring.Successors(RouteKey(source), 1+r.cfg.StealDepth)
}

// Serve answers tenant connections on l with palsvc.ServeWire until the
// listener closes.
func (r *Router) Serve(l net.Listener, connTimeout time.Duration) error {
	return palsvc.ServeWire(l, connTimeout, r.dispatch)
}

// dispatch answers one wire request: run is routed, ping answered locally,
// stats and health aggregated cluster-wide.
func (r *Router) dispatch(req *palsvc.WireRequest) *palsvc.WireResponse {
	switch req.Op {
	case palsvc.OpPing:
		return &palsvc.WireResponse{OK: true}
	case palsvc.OpHealth:
		h := r.ClusterHealth()
		return &palsvc.WireResponse{OK: true, Health: &h}
	case palsvc.OpStats:
		m := r.ClusterStats()
		return &palsvc.WireResponse{OK: true, Stats: &m}
	case palsvc.OpRun:
		return r.route(req)
	case palsvc.OpTrace:
		return r.traceOp(req)
	case palsvc.OpAudit:
		return r.auditOp(req)
	default:
		return &palsvc.WireResponse{Err: fmt.Sprintf("cluster: unknown op %q", req.Op)}
	}
}

// stealableReject reports whether a backend's answer is a pre-execution
// admission rejection the router may transparently retry elsewhere. Only
// these are safe to steal: the job never ran, so re-submitting it cannot
// double-execute. A retryable *job* failure (e.g. an injected fault that
// exhausted the backend's own retry budget) is delivered to the tenant
// as-is — the backend already spent supervised attempts on it.
func stealableReject(resp *palsvc.WireResponse) bool {
	if resp.OK || !resp.Retryable {
		return false
	}
	switch resp.Code {
	case palsvc.CodeQueueFull, palsvc.CodeBankExhausted, palsvc.CodeShed:
		return true
	}
	return false
}

// route is the placement walk: try the primary, steal clockwise on
// admission rejection or transport failure, shed only when the whole chain
// is exhausted. Transport failures mid-request are retried on the next
// backend — PAL jobs are idempotent (execution is deterministic and
// attestation nonces are per-attempt), so at-least-once on a torn
// connection trades no correctness for zero tenant-visible loss.
func (r *Router) route(req *palsvc.WireRequest) *palsvc.WireResponse {
	t0 := time.Now()
	tenant := req.Tenant
	if tenant == "" {
		tenant = req.Name
	}
	// Adopt the tenant's propagated trace context or mint a root. The
	// route span parents every forward span, and each forward span in turn
	// parents the chosen backend's pipeline spans — one tree across
	// processes. With no tracer the request (including any tenant-set
	// trace fields) forwards untouched.
	var route *obs.Span
	if r.cfg.Tracer.Enabled() {
		ctx := req.TraceContext()
		if ctx.Trace.IsZero() {
			ctx = r.cfg.Tracer.NewTrace()
		}
		route = r.cfg.Tracer.StartSpan(ctx, "route", "cluster").Attr("name", req.Name)
		if tenant != "" && tenant != req.Name {
			route.Attr("tenant", tenant)
		}
	}
	key := RouteKey(req.Source)
	cands := r.ring.Successors(key, 1+r.cfg.StealDepth)
	var lastReject *palsvc.WireResponse
	for i, addr := range cands {
		b := r.byAddr[addr]
		if b == nil {
			continue
		}
		fwd := req
		var fs *obs.Span
		if route != nil {
			fs = r.cfg.Tracer.StartSpan(route.Context(), "forward", "cluster").
				Attr("backend", addr).AttrInt("attempt", i+1)
			cp := *req
			cp.TraceID = route.Context().Trace.String()
			cp.ParentSpan = fs.Context().Span
			fwd = &cp
		}
		var resp *palsvc.WireResponse
		err := b.do(func(c *palsvc.Client) (err error) {
			resp, err = c.Do(fwd)
			return err
		})
		if err != nil {
			if fs != nil {
				fs.Attr("outcome", "transport_error").Attr("err", err.Error()).End()
				r.cfg.Tracer.Event(route.Context(), "failover", "cluster", -1,
					obs.String("backend", addr), obs.String("err", err.Error()))
			}
			r.noteTransportFail(b)
			continue
		}
		r.noteTransportOK(b)
		if stealableReject(resp) {
			if fs != nil {
				fs.Attr("outcome", "reject").Attr("code", resp.Code).End()
				r.cfg.Tracer.Event(route.Context(), "steal", "cluster", -1,
					obs.String("backend", addr), obs.String("code", resp.Code))
			}
			b.rejects.Add(1)
			r.setSaturated(b, true)
			lastReject = resp
			continue
		}
		// Terminal answer: success, job error, or deadline — deliver it.
		r.setSaturated(b, false)
		if i == 0 {
			b.routed.Add(1)
		} else {
			b.stolen.Add(1)
			r.metrics.incStolen()
		}
		if resp.BatchSize > 0 {
			b.batched.Add(1)
		}
		d := time.Since(t0)
		b.observe(d)
		r.metrics.observe(d, resp.OK)
		resp.Backend = b.addr
		if fs != nil {
			outcome := "ok"
			if !resp.OK {
				outcome = "error"
			}
			fs.Attr("outcome", outcome).End()
			route.Attr("backend", b.addr).Attr("outcome", outcome).End()
			if resp.TraceID == "" {
				// Old backend without trace support: the router still
				// echoes the trace so tenants can look up their spans.
				resp.TraceID = route.Context().Trace.String()
			}
		}
		r.cfg.SLO.Observe(tenant, d, !resp.OK, route.Context().Trace)
		return resp
	}
	// Whole ring saturated, drained, or unreachable: the cluster-level
	// shed_load contract. Retryable — quarantines expire, probes re-add
	// recovered backends — so resubmission is the right tenant response.
	r.metrics.incShed()
	r.cfg.SLO.Observe(tenant, time.Since(t0), true, route.Context().Trace)
	if r.auditRec != nil {
		// A cluster-wide refusal to run work is a trust decision: put it
		// on the record with the tenant and trace so an auditor can prove
		// the job was shed, not silently dropped.
		r.auditRec.Record(audit.Event{
			Type:   audit.EventRouteShed,
			Handle: -1,
			Tenant: tenant,
			Trace:  route.Context().Trace,
			Detail: fmt.Sprintf("candidates=%d", len(cands)),
		})
	}
	if route != nil {
		route.Attr("outcome", "shed").End()
	}
	if lastReject != nil {
		// Preserve the most informative rejection but stamp it as a
		// cluster-wide decision, not one backend's.
		lastReject.Backend = ""
		lastReject.Code = palsvc.CodeShed
		lastReject.Err = fmt.Sprintf("cluster: shedding load: all %d placement candidates rejected (last: %s)",
			len(cands), lastReject.Err)
		if route != nil {
			lastReject.TraceID = route.Context().Trace.String()
		}
		return lastReject
	}
	resp := &palsvc.WireResponse{
		Err:       fmt.Sprintf("cluster: shedding load: no live backend (%d configured, %d in ring)", len(r.backends), r.ring.Size()),
		Retryable: true,
		Code:      palsvc.CodeShed,
	}
	if route != nil {
		resp.TraceID = route.Context().Trace.String()
	}
	return resp
}

// traceOp answers the trace wire op with a stitched cluster-wide dump.
func (r *Router) traceOp(req *palsvc.WireRequest) *palsvc.WireResponse {
	dump, err := r.StitchTrace(req.TraceID)
	if err != nil {
		return &palsvc.WireResponse{Err: err.Error()}
	}
	return &palsvc.WireResponse{OK: true, Trace: dump}
}

// StitchTrace merges the router's own span ring with every reachable
// backend's (fetched over the trace op, each aligned onto the router's
// clock by its fetch's RTT midpoint — see obs.ClockOffset) into one
// skew-corrected timeline. filter, when non-empty, keeps one trace.
// Backends that are unreachable or predate the trace op are skipped: a
// partial stitch of the nodes that answered beats no stitch.
func (r *Router) StitchTrace(filter string) (*palsvc.TraceDump, error) {
	var id obs.TraceID
	if filter != "" {
		var err error
		id, err = obs.ParseTraceID(filter)
		if err != nil {
			return nil, err
		}
		filter = id.String()
	}
	recs, dropped := r.cfg.Tracer.Snapshot()
	if !id.IsZero() {
		recs = obs.FilterTrace(recs, id)
	}
	dumps := []obs.NodeDump{{Node: "router", Records: recs, Dropped: dropped}}
	truncated := 0
	for _, b := range r.backends {
		var bd *palsvc.TraceDump
		var offset time.Duration
		if err := b.do(func(c *palsvc.Client) (err error) {
			bd, offset, err = c.Trace(filter)
			return err
		}); err != nil {
			// Unreachable, an old build without the trace op, or a torn
			// fetch: stitch without it.
			continue
		}
		truncated += bd.Truncated
		dumps = append(dumps, obs.NodeDump{Node: b.addr, Records: bd.Records, Dropped: bd.Dropped, Offset: offset})
	}
	var droppedTotal uint64
	for _, d := range dumps {
		droppedTotal += d.Dropped
	}
	out := palsvc.BoundTraceDump(obs.Stitch(dumps), droppedTotal)
	out.Truncated += truncated
	return out, nil
}

// auditOp answers the audit wire op with the fleet view.
func (r *Router) auditOp(req *palsvc.WireRequest) *palsvc.WireResponse {
	dump, err := r.FleetAudit(req)
	if err != nil {
		return &palsvc.WireResponse{Err: err.Error()}
	}
	return &palsvc.WireResponse{OK: true, Audit: dump}
}

// FleetAudit aggregates per-backend audit logs into one fleet view: the
// outer dump is the router's own control-plane log (unsigned heads), and
// Nodes carries one dump per reachable backend, each with that node's
// AIK-signed head — the per-node roots of trust stay distinct; the router
// never re-signs or merges trees. Backends that are unreachable, predate
// the audit op, or run without a log are skipped: a partial fleet view of
// the nodes that answered beats none, the same contract as StitchTrace.
func (r *Router) FleetAudit(req *palsvc.WireRequest) (*palsvc.AuditDump, error) {
	// The router's own slice and each backend's share one bound, so the
	// nested fleet answer stays inside one wire frame even on a wide
	// cluster.
	q, err := req.AuditQuery(fleetAuditSlice)
	if err != nil {
		return nil, err
	}
	out := &palsvc.AuditDump{Node: "router"}
	if r.cfg.Audit != nil {
		out = palsvc.AuditTail(r.cfg.Audit, q)
	}
	fwd := *req
	fwd.Limit = q.Limit
	for _, b := range r.backends {
		var bd *palsvc.AuditDump
		if err := b.do(func(c *palsvc.Client) (err error) {
			bd, err = c.Audit(&fwd)
			return err
		}); err != nil {
			continue
		}
		if bd.Node == "" {
			bd.Node = b.addr
		}
		out.Nodes = append(out.Nodes, *bd)
	}
	return out, nil
}

// noteTransportFail counts one transport failure against b and drains it
// from the ring at the threshold — the request-path twin of the prober's
// detection, so a dead backend stops receiving primaries after ProbeFails
// torn requests even between probe ticks.
func (r *Router) noteTransportFail(b *backend) {
	b.transport.Add(1)
	b.mu.Lock()
	b.consecFails++
	trip := b.consecFails >= r.cfg.ProbeFails && b.state != StateDown
	if trip {
		b.state = StateDown
	}
	b.mu.Unlock()
	if trip {
		r.ring.Remove(b.addr)
		b.drainPool()
		r.metrics.incDowned()
	}
}

// noteTransportOK resets b's failure streak after any clean round trip.
func (r *Router) noteTransportOK(b *backend) {
	b.mu.Lock()
	b.consecFails = 0
	b.mu.Unlock()
}

// setSaturated flips the informational Healthy<->Saturated state; Down and
// Draining are owned by the transport/probe paths and never touched here.
func (r *Router) setSaturated(b *backend, sat bool) {
	b.mu.Lock()
	switch {
	case sat && b.state == StateHealthy:
		b.state = StateSaturated
	case !sat && b.state == StateSaturated:
		b.state = StateHealthy
	}
	b.mu.Unlock()
}

// probe is one backend's health loop: every ProbeInterval it runs the wire
// health op (falling back to stats against pre-health servers) and a stats
// fetch on a pooled connection, then reconciles ring membership:
//
//   - transport failure        → consecFails++; Down + drain at threshold
//   - health says Shedding     → Draining + drain (replicas quarantined)
//   - healthy answer           → reset fails, rejoin ring if absent
func (r *Router) probe(b *backend) {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		r.probeOnce(b)
	}
}

// probeOnce runs a single probe cycle against b.
func (r *Router) probeOnce(b *backend) {
	var h *palsvc.HealthInfo
	var stats *palsvc.Metrics
	if err := b.do(func(c *palsvc.Client) (err error) {
		if h, err = c.Health(); err != nil {
			return err
		}
		stats, err = c.Stats()
		return err
	}); err != nil {
		r.noteTransportFail(b)
		return
	}
	r.noteTransportOK(b)

	b.mu.Lock()
	b.lastHealth = *h
	b.lastStats = stats
	b.lastProbe = time.Now()
	prev := b.state
	switch {
	case h.Shedding:
		b.state = StateDraining
	case h.FreeSePCRs == 0 && h.QueueDepth >= h.QueueCap && h.QueueCap > 0:
		b.state = StateSaturated
	default:
		b.state = StateHealthy
	}
	next := b.state
	b.mu.Unlock()

	switch {
	case next == StateDraining && prev != StateDraining:
		r.ring.Remove(b.addr)
		r.metrics.incDrained()
	case next != StateDraining && !r.ring.Has(b.addr):
		r.ring.Add(b.addr)
		if prev == StateDown || prev == StateDraining {
			r.metrics.incRejoined()
		}
	}
}

// ClusterHealth aggregates the fleet's admission capacity: the sum of every
// in-ring backend's last health snapshot, with drained backends' replicas
// counted as quarantined. Shedding is true only when the ring is empty —
// the same condition route answers shed_load for.
func (r *Router) ClusterHealth() palsvc.HealthInfo {
	var out palsvc.HealthInfo
	for _, b := range r.backends {
		h, at := b.health()
		state := b.State()
		if at.IsZero() {
			// Never successfully probed: count nothing but its existence.
			if state == StateDown {
				continue
			}
			continue
		}
		out.Replicas += h.Replicas
		out.QueueCap += h.QueueCap
		if state == StateDown || state == StateDraining {
			out.QuarantinedReplicas += h.Replicas
			continue
		}
		out.QueueDepth += h.QueueDepth
		out.FreeSePCRs += h.FreeSePCRs
		out.Bank += h.Bank
		out.QuarantinedReplicas += h.QuarantinedReplicas
	}
	out.Shedding = r.ring.Size() == 0
	return out
}

// ClusterStats sums every backend's last stats snapshot into one
// cluster-level Metrics. Counters add exactly; stage latency distributions
// cannot be merged from summaries, so each stage reports the
// observation-weighted mean of the backends' means, the max of maxes, and
// weighted means of the percentile points — good enough for a dashboard,
// with the exact router-measured end-to-end distribution available from
// Snapshot/ /metrics. Backends never probed contribute nothing.
func (r *Router) ClusterStats() palsvc.Metrics {
	var out palsvc.Metrics
	var snaps []*palsvc.Metrics
	for _, b := range r.backends {
		if m := b.stats(); m != nil {
			snaps = append(snaps, m)
		}
	}
	for _, m := range snaps {
		out.Submitted += m.Submitted
		out.Admitted += m.Admitted
		out.Rejected += m.Rejected
		out.RejectedQueueFull += m.RejectedQueueFull
		out.RejectedBank += m.RejectedBank
		out.RejectedShed += m.RejectedShed
		out.Completed += m.Completed
		out.Failed += m.Failed
		out.DeadlineExceeded += m.DeadlineExceeded
		out.Retried += m.Retried
		out.Quarantines += m.Quarantines
		out.QueueDepth += m.QueueDepth
		out.SePCRCapacity += m.SePCRCapacity
		out.SePCROccupancy += m.SePCROccupancy
		out.MaxSePCROccupancy += m.MaxSePCROccupancy
		out.CacheHits += m.CacheHits
		out.CacheMisses += m.CacheMisses
		out.VerifyMemoHits += m.VerifyMemoHits
		out.VerifyMemoMisses += m.VerifyMemoMisses
		out.QuoteBatches += m.QuoteBatches
		out.BatchedJobs += m.BatchedJobs
		out.QuoteSigns += m.QuoteSigns
		if m.MaxBatchSize > out.MaxBatchSize {
			out.MaxBatchSize = m.MaxBatchSize
		}
	}
	out.QueueWait = mergeStage(snaps, func(m *palsvc.Metrics) palsvc.StageStats { return m.QueueWait })
	out.ArbWait = mergeStage(snaps, func(m *palsvc.Metrics) palsvc.StageStats { return m.ArbWait })
	out.Execute = mergeStage(snaps, func(m *palsvc.Metrics) palsvc.StageStats { return m.Execute })
	out.QuoteGen = mergeStage(snaps, func(m *palsvc.Metrics) palsvc.StageStats { return m.QuoteGen })
	out.Verify = mergeStage(snaps, func(m *palsvc.Metrics) palsvc.StageStats { return m.Verify })
	return out
}

// mergeStage combines per-backend stage summaries, weighting by
// observation count.
func mergeStage(snaps []*palsvc.Metrics, pick func(*palsvc.Metrics) palsvc.StageStats) palsvc.StageStats {
	var out palsvc.StageStats
	var n int64
	var mean, p50, p95, p99 float64
	for _, m := range snaps {
		s := pick(m)
		if s.N == 0 {
			continue
		}
		w := int64(s.N)
		n += w
		mean += float64(s.Mean) * float64(w)
		p50 += float64(s.P50) * float64(w)
		p95 += float64(s.P95) * float64(w)
		p99 += float64(s.P99) * float64(w)
		if s.Max > out.Max {
			out.Max = s.Max
		}
	}
	if n == 0 {
		return out
	}
	out.N = int(n)
	out.Mean = time.Duration(mean / float64(n))
	out.P50 = time.Duration(p50 / float64(n))
	out.P95 = time.Duration(p95 / float64(n))
	out.P99 = time.Duration(p99 / float64(n))
	return out
}
