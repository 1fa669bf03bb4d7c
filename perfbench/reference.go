package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// referenceQuotes is how many leading quote draws reference.json keeps.
// Every attest-direct daemon instance in a run quotes more jobs than this.
const referenceQuotes = 2048

// writeReference re-records reference.json from the current program: for
// each workload the file already names it boots the daemon and runs jobs
// one at a time, so quote draws arrive in stream order.
func writeReference() error {
	old, err := loadReferences()
	if err != nil {
		return err
	}
	refs := map[string]reference{}
	for _, w := range workloads {
		if _, ok := old[w.name]; !ok {
			continue
		}
		jobs := 64
		if !w.noAttest {
			jobs = referenceQuotes
		}
		b := &bench{w: w, seed: 1, tenants: w.tenantsFor(1)}
		bin, args := b.daemonArgs(false)
		d, err := startDaemon(bin, args, false)
		if err != nil {
			return err
		}
		ref, err := recordReference(w, b.tenants, d.addr, jobs)
		d.stop()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		refs[w.name] = ref
	}
	// One workload per line keeps diffs of the file readable.
	var out bytes.Buffer
	out.WriteString("{\n")
	for _, w := range workloads {
		ref, ok := refs[w.name]
		if !ok {
			continue
		}
		line, err := json.Marshal(ref)
		if err != nil {
			return err
		}
		sep := ","
		if len(refs) == 1 {
			sep = ""
		}
		fmt.Fprintf(&out, "  %q: %s%s\n", w.name, line, sep)
		delete(refs, w.name)
	}
	out.WriteString("}\n")
	return os.WriteFile("perfbench/reference.json", out.Bytes(), 0o644)
}

func recordReference(w *workload, tenants []tenant, addr string, jobs int) (reference, error) {
	var ref reference
	c, err := dial(addr)
	if err != nil {
		return ref, err
	}
	defer c.Close()
	gen := newJobGen(w, tenants, 1, 0)
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < jobs; i++ {
		j := gen.next()
		x, err := c.do(&j.req)
		if err != nil {
			return ref, err
		}
		if why := w.checkOutput(&j, &x.resp); why != "" {
			return ref, fmt.Errorf("job %d: %s", i, why)
		}
		if i == 0 {
			ref.ExecuteNS = x.resp.ExecuteNS
		} else if x.resp.ExecuteNS != ref.ExecuteNS {
			return ref, fmt.Errorf("execute_ns varies: %d then %d", ref.ExecuteNS, x.resp.ExecuteNS)
		}
		if !w.noAttest {
			ref.QuoteGenNS = append(ref.QuoteGenNS, x.resp.QuoteGenNS)
		}
		if time.Now().After(deadline) {
			return ref, fmt.Errorf("took over a minute")
		}
	}
	return ref, nil
}
