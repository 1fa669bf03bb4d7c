package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// perLayer is the traced run. The first half of the window measures the
// untraced rate (the base of trace.overhead_ratio and the p99 diagnostic);
// the second half runs the daemons with -trace and fetches sampled jobs'
// spans through the trace op (see phase.run).
func (b *bench) perLayer(measure time.Duration) error {
	half := measure / 2
	in, err := b.boot(false)
	if err != nil {
		return err
	}
	plain := b.measurePhase(in, half, false)
	b.retire(in)
	wallClock(b.vals, plain, half)

	if in, err = b.boot(true); err != nil {
		return err
	}
	r := b.measurePhase(in, half, true)
	st, prom, err := b.serverCounters(in)
	b.retire(in)
	if err != nil {
		return err
	}
	b.layerMetrics(r, half, st, prom)
	return nil
}

// serverCounters reads the daemon's lifetime counters: the stats op, and
// for palservd the /metrics exposition of the threaded-code tier.
func (b *bench) serverCounters(in *instance) (*stats, map[string]float64, error) {
	if b.w.routed {
		// The router's stats op sums what its health prober last sampled
		// from each backend; give it a probe period to catch up.
		time.Sleep(300 * time.Millisecond)
	}
	c, err := dial(in.d.addr)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	r, err := c.call(&request{Op: "stats"})
	if err != nil {
		return nil, nil, err
	}
	if r.Stats == nil {
		return nil, nil, fmt.Errorf("stats op answered without a snapshot")
	}
	if in.d.debugAddr == "" {
		return r.Stats, nil, nil
	}
	prom, err := scrapeMetrics("http://" + in.d.debugAddr + "/metrics")
	return r.Stats, prom, err
}

// scrapeMetrics parses unlabelled samples of a Prometheus text page.
func scrapeMetrics(url string) (map[string]float64, error) {
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer values. Times are host microseconds
// per job unless the name says otherwise; vtime.* are the simulator's
// virtual clock and are never added to host time.
func (b *bench) layerMetrics(r *loadResult, window time.Duration, st *stats, prom map[string]float64) {
	plainRate := b.vals["jobs_per_s"]
	var n, rtt, lost, vex, reqB, respB, retries, batch, vq float64
	var ringDropped uint64
	var t jobSpans // sums over the traced jobs whose spans are complete
	for _, o := range r.jobs {
		reqB += float64(o.reqBytes)
		respB += float64(o.respBytes)
		retries += float64(o.attempts - 1)
		batch += float64(o.batch)
		vq += float64(o.quoteNS)
		js := o.spans
		if js == nil {
			continue
		}
		lost += float64(js.lost)
		ringDropped = max(ringDropped, js.ringDropped)
		if !js.complete {
			continue
		}
		n++
		rtt += float64(o.rtt.Nanoseconds())
		vex += float64(o.executeNS)
		t.add(js)
	}
	jobs := float64(len(r.jobs))
	perJobUS := func(ns float64) float64 { return ratio(ns, n) / 1e3 }
	v := b.vals
	v["wire.rtt_us"] = perJobUS(rtt)
	v["wire.residual_us"] = perJobUS(t.layers[layerWire])
	v["wire.req_bytes"] = ratio(reqB, jobs)
	v["wire.resp_bytes"] = ratio(respB, jobs)
	v["cluster.route_self_us"] = perJobUS(t.routeSelf)
	v["cluster.hop_us"] = perJobUS(t.hop)
	v["cluster.forwards_per_job"] = ratio(float64(t.forwards), n)
	v["cluster.backend_share_max"] = backendShareMax(r.jobs)
	v["palsvc.queue_wait_us"] = perJobUS(t.queue)
	v["palsvc.admit_us"] = perJobUS(t.admit)
	v["palsvc.arb_wait_us"] = perJobUS(t.arb)
	v["palsvc.image_cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	v["palsvc.retries_per_job"] = ratio(retries, jobs)
	v["palsvc.sepcr_occupancy_max"] = float64(st.MaxSePCROccupancy)
	v["palsvc.batch_size_mean"] = ratio(batch, jobs)
	v["palsvc.batch_linger_us"] = perJobUS(t.linger)
	v["sksm.slaunch_us"] = ratio(t.slaunchSelf, float64(t.slaunches)) / 1e3
	v["sksm.slice_us"] = ratio(t.sliceDur, float64(t.slices)) / 1e3
	v["sksm.slices_per_job"] = ratio(float64(t.slices), n)
	v["sksm.resumes_per_job"] = ratio(float64(t.resumes), n)
	v["cpu.exec_host_us"] = perJobUS(t.layers[layerCPU])
	v["cpu.vns_per_host_ns"] = ratio(vex, t.execHost)
	// Only palservd serves /metrics here; palrouter's spawned backends
	// keep no registry, so the routed workload reports -1 (unavailable).
	v["cpu.blocks_compiled"] = -1
	v["cpu.block_bailouts_per_job"] = -1
	if prom != nil {
		v["cpu.blocks_compiled"] = prom["palsvc_blocks_compiled_total"]
		v["cpu.block_bailouts_per_job"] = ratio(prom["palsvc_block_bailouts_total"], float64(st.Completed))
	}
	v["tpm.quote_us"] = perJobUS(t.tpmQuote)
	v["tpm.sepcr_cmds_us"] = perJobUS(t.tpmOther)
	v["tpm.signs_per_job"] = ratio(float64(st.QuoteSigns), float64(st.Completed))
	v["attest.verify_us"] = perJobUS(t.verify)
	v["attest.verify_memo_hit_ratio"] = ratio(float64(st.VerifyMemoHits), float64(st.VerifyMemoHits+st.VerifyMemoMisses))
	v["vtime.execute_us"] = ratio(vex, n) / 1e3
	v["vtime.quote_gen_us"] = ratio(vq, jobs) / 1e3
	// The traced rate leaves out the time the benchmark's own trace
	// fetches paused the loop, so the ratio is the daemons' tracing cost.
	v["trace.overhead_ratio"] = ratio(plainRate, jobs/(window-r.paused).Seconds())
	v["trace.dropped"] = lost
	v["layers.unattributed_ratio"] = ratio(t.layers[layerUnattributed], rtt)
	for i, name := range layerNames {
		v["layers."+name+"_us"] = perJobUS(t.layers[i])
	}
	b.diag["traced_jobs"] = n
	b.diag["trace.fetch_pause_s"] = r.paused.Seconds()
	b.diag["trace.ring_overwritten"] = float64(ringDropped)
}

// printLayerTable writes the human-readable layer table of a traced run.
func printLayerTable(w io.Writer, v map[string]float64) {
	fmt.Fprintf(w, "%-14s %10s %7s\n", "layer", "us/job", "share")
	total := v["wire.rtt_us"]
	for _, name := range layerNames {
		us := v["layers."+name+"_us"]
		fmt.Fprintf(w, "%-14s %10.1f %6.1f%%\n", name, us, 100*ratio(us, total))
	}
	fmt.Fprintf(w, "%-14s %10.1f\n", "rtt (traced)", total)
}

// backendShareMax is the largest share of jobs one backend answered; 0
// when no answer named a backend (unrouted workloads).
func backendShareMax(jobs []outcome) float64 {
	count := map[string]float64{}
	var shareMax float64
	for _, o := range jobs {
		if o.backend != "" {
			count[o.backend]++
			shareMax = max(shareMax, count[o.backend]/float64(len(jobs)))
		}
	}
	return shareMax
}
