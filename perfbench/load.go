package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's connection count: every tenant call blocks
// until its attested result comes back, so each connection sends its next
// job only after the previous answer. Two matches the machine's two CPUs
// this benchmark was sized on.
const clients = 2

// fetchGap is the least time between two trace fetches of a traced
// phase; see phase.run.
const fetchGap = 10 * time.Millisecond

// outcome is one measured job.
type outcome struct {
	start, end          time.Time
	rtt                 time.Duration
	reqBytes, respBytes int
	attempts, batch     int
	backend             string
	executeNS, quoteNS  int64
	spans               *jobSpans // traced phases only
}

// loadResult is what one closed-loop phase produced.
type loadResult struct {
	windowStart, windowEnd time.Time
	jobs                   []outcome // successful jobs started inside the window
	// attempted and failed count every job of the phase, warm-up
	// included, so a failure anywhere fails the run.
	attempted, failed int
	failures          []string // first few failure reasons
	// paused is the time measured jobs' trace fetches held the loop
	// with no job in flight; the traced rate excludes it.
	paused time.Duration
	// usage is what the measured window cost in CPU time, and slices
	// what each part of it cost and the clock rate it ran at (cpu.go).
	usage  usage
	slices []slice
}

// clientSpan is the parent span ID the benchmark's own send→decode span
// carries; server top spans name it as their parent.
const clientSpan = 1

// traceIDHigh is the high word of the trace IDs the benchmark propagates
// in traced phases; it keeps them apart from daemon-minted IDs.
const traceIDHigh = 0x7065726662656e63

// phase is one closed-loop run against a started daemon instance.
type phase struct {
	w       *workload
	addr    string
	tenants []tenant
	seed    int64
	warmup  time.Duration
	measure time.Duration
	traced  bool
	check   *virtualCheck // nil when the workload has no identity check
	pid     int           // the daemon's process, for CPU accounting
}

// run drives clients connections for warmup+measure and returns the jobs
// started inside the measured window.
func (p *phase) run() *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	fail := func(why string) {
		mu.Lock()
		res.attempted++
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, why)
		}
		mu.Unlock()
	}
	t0 := time.Now()
	res.windowStart = t0.Add(p.warmup)
	res.windowEnd = res.windowStart.Add(p.measure)
	var traceSeq atomic.Uint64
	// In traced phases a trace fetch makes the daemon copy its whole span
	// ring and encode a dump. Fetching every job's trace would make that
	// garbage collection and CPU the bulk of the daemon's work and inflate
	// the very spans being measured, so a job's spans are fetched only when
	// fetchGap has passed since the last fetch, and the fetch runs alone:
	// jobs share quiet, fetches take it exclusively.
	var quiet sync.RWMutex
	var nextFetch atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.watch(p.pid)
	}()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			gen := newJobGen(p.w, p.tenants, p.seed, client)
			var c *conn
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for {
				now := time.Now()
				if !now.Before(res.windowEnd) {
					return
				}
				measured := !now.Before(res.windowStart)
				if c == nil {
					var err error
					if c, err = dial(p.addr); err != nil {
						fail("dial: " + err.Error())
						time.Sleep(10 * time.Millisecond)
						continue
					}
				}
				j := gen.next()
				if p.traced {
					j.req.TraceID = fmt.Sprintf("%016x%016x", uint64(traceIDHigh), traceSeq.Add(1))
					j.req.ParentSpan = clientSpan
				}
				quiet.RLock()
				x, err := c.do(&j.req)
				quiet.RUnlock()
				if err != nil {
					// A torn connection fails this job; the next one
					// redials.
					c.Close()
					c = nil
					fail("transport: " + err.Error())
					continue
				}
				p.check.observe(&x.resp)
				o := outcome{start: x.start, end: x.start.Add(x.rtt), rtt: x.rtt,
					reqBytes: x.reqBytes, respBytes: x.respBytes,
					attempts: x.resp.Attempts, batch: x.resp.BatchSize, backend: x.resp.Backend,
					executeNS: x.resp.ExecuteNS, quoteNS: x.resp.QuoteGenNS}
				if why := p.w.checkOutput(&j, &x.resp); why != "" {
					fail(j.tenant.name + ": " + why)
					continue
				}
				var pause time.Duration
				if due := nextFetch.Load(); p.traced && o.end.UnixNano() >= due && nextFetch.CompareAndSwap(due, math.MaxInt64) {
					quiet.Lock()
					held := time.Now()
					sp, err := fetchSpans(c, j.req.TraceID, x.rtt)
					pause = time.Since(held)
					quiet.Unlock()
					nextFetch.Store(time.Now().Add(fetchGap).UnixNano())
					if err != nil {
						c.Close()
						c = nil
						fail("trace fetch: " + err.Error())
						continue
					}
					o.spans = sp
				}
				mu.Lock()
				res.attempted++
				if measured {
					res.jobs = append(res.jobs, o)
					res.paused += pause
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return res
}
