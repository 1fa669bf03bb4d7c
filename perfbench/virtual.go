package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"
)

// The simulated-statistics identity check. Every job reports the virtual
// time the model charged it (execute_ns, quote_gen_ns). Those are the
// paper's numbers, so a host-side speed-up must leave them bit-identical.
// reference.json holds them as recorded with -write-reference:
//
//   - execute_ns is one constant per workload: the same image length and
//     loop run on every job, whatever the tenant or input.
//   - quote_gen_ns is 0 on unattested workloads. On attest-direct it is the
//     TPM's quote latency plus seeded jitter, drawn from the machine's
//     stream in quote order. Concurrent clients decide which job gets which
//     draw, but the first N quotes of a daemon always consume exactly the
//     first N draws, so the multiset of a daemon's quote times must contain
//     the stored prefix of the stream.

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	ExecuteNS  int64   `json:"execute_ns"`
	QuoteGenNS []int64 `json:"quote_gen_ns,omitempty"`
}

func loadReferences() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// virtualCheck accumulates one daemon instance's answers. A nil check
// accepts everything (workloads without an identity check).
type virtualCheck struct {
	ref reference

	mu     sync.Mutex
	n      int
	quotes map[int64]int
	bad    string
}

func newVirtualCheck(ref reference) *virtualCheck {
	return &virtualCheck{ref: ref, quotes: map[int64]int{}}
}

// observe records one successful answer's virtual times.
func (v *virtualCheck) observe(r *response) {
	if v == nil || !r.OK {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	switch {
	case v.bad != "":
	case r.ExecuteNS != v.ref.ExecuteNS:
		v.bad = fmt.Sprintf("execute_ns %d, reference %d", r.ExecuteNS, v.ref.ExecuteNS)
	case len(v.ref.QuoteGenNS) == 0 && r.QuoteGenNS != 0:
		v.bad = fmt.Sprintf("quote_gen_ns %d on an unattested job", r.QuoteGenNS)
	default:
		v.quotes[r.QuoteGenNS]++
	}
}

// verdict returns "" when every observed answer matched the reference.
func (v *virtualCheck) verdict() string {
	if v == nil {
		return ""
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.bad != "" {
		return v.bad
	}
	prefix := v.ref.QuoteGenNS
	if len(prefix) > v.n {
		prefix = prefix[:v.n]
	}
	left := make(map[int64]int, len(v.quotes))
	for q, c := range v.quotes {
		left[q] = c
	}
	for i, q := range prefix {
		if left[q] == 0 {
			return fmt.Sprintf("quote draw %d (%d ns) missing from %d answers", i, q, v.n)
		}
		left[q]--
	}
	return ""
}
