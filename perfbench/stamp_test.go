package main

import (
	"io"
	"strings"
	"testing"
)

func TestCompareRecords(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	st := stamp{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Commit: "c"}
	rec := func(workload string, seed int64, jobs, setup float64) runRecord {
		return runRecord{Stamp: st, Workload: workload, Seed: seed, Result: result{
			Correct: true, Attempted: 10, Metrics: map[string]metric{
				"jobs_per_s": {Value: jobs, Unit: "jobs/s"},
				"setup_s":    {Value: setup, Unit: "s"},
			}}}
	}
	set := func(jobs, setup float64) []runRecord {
		var out []runRecord
		for seed := int64(1); seed <= 3; seed++ {
			out = append(out, rec("attest-direct", seed, jobs+float64(seed), setup), rec("preempt-compute", seed, 100, setup))
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change func([]runRecord) []runRecord
		want   string // substring of the error; "" passes
	}{
		{"same", func(r []runRecord) []runRecord { return r }, ""},
		{"within bound", func([]runRecord) []runRecord { return set(900, 1.2) }, ""},
		{"slower", func([]runRecord) []runRecord { return set(700, 1) }, "jobs_per_s worse"},
		{"slower setup", func([]runRecord) []runRecord { return set(1000, 1.3) }, "setup_s worse"},
		{"incorrect change run", func(r []runRecord) []runRecord {
			r[0].Result.Correct = false
			return r
		}, "incorrect"},
		{"every change run incorrect", func(r []runRecord) []runRecord {
			for i := range r {
				r[i].Result.Correct = false
			}
			return r
		}, "incorrect"},
		{"workload missing", func(r []runRecord) []runRecord {
			var out []runRecord
			for _, x := range r {
				if x.Workload != "preempt-compute" {
					out = append(out, x)
				}
			}
			return out
		}, "preempt-compute jobs_per_s has values on one side only"},
		{"metric missing", func(r []runRecord) []runRecord {
			for _, x := range r {
				delete(x.Result.Metrics, "setup_s")
			}
			return r
		}, "setup_s has values on one side only"},
		{"other machine", func(r []runRecord) []runRecord {
			r[1].Stamp.NProc = 4
			return r
		}, "different machines"},
	} {
		err := compareRecords(io.Discard, sp, set(1000, 1), c.change(set(1000, 1)))
		if c.want == "" && err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
