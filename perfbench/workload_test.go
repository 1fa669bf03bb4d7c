package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestTenantsDeriveFromSeed(t *testing.T) {
	w := findWorkload("noattest-routed")
	a, b := w.tenantsFor(7), w.tenantsFor(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different tenants")
	}
	if reflect.DeepEqual(a, w.tenantsFor(8)) {
		t.Fatal("different seeds gave the same tenants")
	}
	images := map[string]bool{}
	for _, tn := range a {
		images[tn.source] = true
	}
	if len(a) != 64 || len(images) != 64 {
		t.Fatalf("%d tenants with %d distinct images, want 64 and 64", len(a), len(images))
	}
	g1, g2 := newJobGen(w, a, 7, 0), newJobGen(w, a, 7, 0)
	for i := 0; i < 10; i++ {
		if j1, j2 := g1.next(), g2.next(); !reflect.DeepEqual(j1.req, j2.req) {
			t.Fatalf("job %d differs between identical generators", i)
		}
	}
}

func TestCheckOutput(t *testing.T) {
	direct, batched, routed := findWorkload("attest-direct"), findWorkload("attest-batched"), findWorkload("noattest-routed")
	good := func(w *workload) (job, response) {
		j := newJobGen(w, w.tenantsFor(1), 1, 0).next()
		r := response{OK: true, Output: j.want}
		if !w.noAttest {
			r.VerifiedAs = j.tenant.name
		}
		if w.maxBatch > 0 {
			r.BatchSize = w.maxBatch
		}
		return j, r
	}
	for _, c := range []struct {
		name   string
		w      *workload
		mutate func(j *job, r *response)
		want   string // substring of the rejection; "" accepts
	}{
		{"accepts", direct, func(*job, *response) {}, ""},
		{"accepts batched", batched, func(*job, *response) {}, ""},
		{"accepts routed", routed, func(*job, *response) {}, ""},
		{"wrong output", direct, func(_ *job, r *response) { r.Output = []byte("bench") }, "output"},
		{"wrong verified_as", direct, func(_ *job, r *response) { r.VerifiedAs = "tenant-other" }, "verified_as"},
		{"missing verified_as", direct, func(_ *job, r *response) { r.VerifiedAs = "" }, "verified_as"},
		{"not ok", direct, func(_ *job, r *response) { r.OK, r.Err = false, "boom" }, "not ok"},
		{"exit status", routed, func(_ *job, r *response) { r.ExitStatus = 1 }, "exit status"},
		{"batch too large", batched, func(_ *job, r *response) { r.BatchSize = batched.maxBatch + 1 }, "batch_size"},
		{"batch missing", batched, func(_ *job, r *response) { r.BatchSize = 0 }, "batch_size"},
		{"one-shot claims batch", direct, func(_ *job, r *response) { r.BatchSize = 2 }, "batch_size"},
	} {
		j, r := good(c.w)
		c.mutate(&j, &r)
		got := c.w.checkOutput(&j, &r)
		if (got == "") != (c.want == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: checkOutput = %q, want rejection containing %q", c.name, got, c.want)
		}
	}
}

func TestVirtualCheck(t *testing.T) {
	ref := reference{ExecuteNS: 100, QuoteGenNS: []int64{7, 5, 7}}
	ok := func(exec, quote int64) *response { return &response{OK: true, ExecuteNS: exec, QuoteGenNS: quote} }

	v := newVirtualCheck(ref)
	for _, q := range []int64{5, 7, 9, 7} { // any order; extra draws beyond the prefix
		v.observe(ok(100, q))
	}
	if got := v.verdict(); got != "" {
		t.Errorf("matching answers rejected: %s", got)
	}

	v = newVirtualCheck(ref)
	v.observe(ok(100, 7))
	v.observe(ok(100, 5)) // two answers: the first two draws, in any order
	if got := v.verdict(); got != "" {
		t.Errorf("prefix of two rejected: %s", got)
	}

	v = newVirtualCheck(ref)
	for _, q := range []int64{7, 5, 5} {
		v.observe(ok(100, q))
	}
	if v.verdict() == "" {
		t.Error("a quote time outside the reference stream was accepted")
	}

	v = newVirtualCheck(ref)
	v.observe(ok(101, 7))
	if !strings.Contains(v.verdict(), "execute_ns") {
		t.Error("a changed execute time was accepted")
	}

	v = newVirtualCheck(reference{ExecuteNS: 100})
	v.observe(ok(100, 3))
	if !strings.Contains(v.verdict(), "unattested") {
		t.Error("a quote time on an unattested workload was accepted")
	}
}

func TestReferenceEntries(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("reference.json has no entries")
	}
	for name, r := range refs {
		w := findWorkload(name)
		switch {
		case w == nil:
			t.Errorf("reference entry %s names no workload", name)
		case r.ExecuteNS <= 0:
			t.Errorf("%s: execute_ns %d", name, r.ExecuteNS)
		case w.noAttest && len(r.QuoteGenNS) != 0:
			t.Errorf("%s: unattested workload with %d quote draws", name, len(r.QuoteGenNS))
		case !w.noAttest && len(r.QuoteGenNS) != referenceQuotes:
			t.Errorf("%s: %d reference quote draws, want %d", name, len(r.QuoteGenNS), referenceQuotes)
		}
	}
}
