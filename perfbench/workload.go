package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// workload is one traffic mix: the daemon shape it runs against and the
// jobs its tenants submit. Why each exists is recorded in README.md.
type workload struct {
	name string
	// routed runs palrouter -spawn 2 instead of a single palservd.
	routed bool
	// args configure the daemon (everything but its listen address).
	args []string
	// tenants is how many tenant names the seed generates.
	tenants int
	// image returns a tenant's PAL source and the output it must produce
	// for input in.
	image    func(tag string) string
	expected func(tag string, in []byte) []byte
	noAttest bool
	// maxBatch is the daemon's -quote-batch bound, which responses must
	// respect; 0 means quotes are one-shot and batch_size must be absent.
	maxBatch int
}

// benchPAL is the repository's 5-instruction benchmark PAL: it writes a
// fixed 5-byte message to its output. Each tenant's variant replaces the
// message with its 5-character tag, so every image has the same length and
// the same virtual cost. The attested workloads need one image per tenant:
// palsvc binds the attested identity to the image, so tenants sharing an
// image share one verified name (internal/palsvc/job.go), and verified_as
// could not be checked against the submitted name.
func benchPAL(tag string) string {
	return fmt.Sprintf("\tldi r0, msg\n\tldi r1, 5\n\tsvc 6\n\tldi r0, 0\n\tsvc 0\nmsg:\t.ascii %q\n", tag)
}

// busyPAL spins ~393k instructions (the `lui r1, 2` counting loop), then
// echoes up to 32 input bytes, so its output still depends on the request.
const busyPAL = `
	ldi r0, 0
	ldi r1, 0
	lui r1, 2
loop:	addi r0, 1
	cmp r0, r1
	jnz loop
	ldi r0, buf
	ldi r1, 32
	svc 7
	mov r1, r0
	ldi r0, buf
	svc 6
	ldi r0, 0
	svc 0
buf:	.ascii "--------------------------------"
`

var workloads = []*workload{
	{
		name:     "attest-direct",
		args:     []string{"-machines", "1", "-sepcrs", "8", "-keybits", "1024", "-seed", "42"},
		tenants:  4,
		image:    benchPAL,
		expected: func(tag string, _ []byte) []byte { return []byte(tag) },
	},
	{
		name:   "noattest-routed",
		routed: true,
		args: []string{"-spawn", "2", "-machines", "1", "-sepcrs", "8",
			"-keybits", "1024", "-seed", "42"},
		tenants:  64,
		image:    benchPAL,
		expected: func(tag string, _ []byte) []byte { return []byte(tag) },
		noAttest: true,
	},
	{
		// A batch flushes when it is full or when its linger runs out. With
		// the bound equal to the closed loop's connection count, every batch
		// takes one job from each connection and flushes at once, so how
		// many jobs share a signature does not depend on host timing; the
		// 5ms linger only ends a batch whose partner job is stalled. A
		// larger bound never fills, so every batch would wait out the
		// linger and the jobs per signature would follow the scheduler.
		name: "attest-batched",
		args: []string{"-machines", "1", "-sepcrs", "8", "-keybits", "1024", "-seed", "42",
			"-quote-batch-wait", "5ms"},
		tenants:  4,
		image:    benchPAL,
		expected: func(tag string, _ []byte) []byte { return []byte(tag) },
		maxBatch: clients,
	},
	{
		name: "preempt-compute",
		args: []string{"-machines", "1", "-sepcrs", "8", "-keybits", "1024", "-seed", "42",
			"-quantum", "1us"},
		tenants:  4,
		image:    func(string) string { return busyPAL },
		expected: func(_ string, in []byte) []byte { return in },
		noAttest: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tenant is one generated tenant: its name (the job name, and so the
// identity attestation must report) and its image.
type tenant struct {
	name, tag, source string
}

// tenantsFor generates the workload's tenants from seed. Tags are five
// lowercase letters, distinct within the set.
func (w *workload) tenantsFor(seed int64) []tenant {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([]tenant, 0, w.tenants)
	for len(out) < w.tenants {
		tag := make([]byte, 5)
		for i := range tag {
			tag[i] = byte('a' + rng.Intn(26))
		}
		if seen[string(tag)] {
			continue
		}
		seen[string(tag)] = true
		out = append(out, tenant{name: "tenant-" + string(tag), tag: string(tag), source: w.image(string(tag))})
	}
	return out
}

// jobGen draws one client's jobs: a tenant and a 1–32 byte input each.
type jobGen struct {
	w       *workload
	tenants []tenant
	rng     *rand.Rand
}

func newJobGen(w *workload, tenants []tenant, seed int64, client int) *jobGen {
	return &jobGen{w: w, tenants: tenants, rng: rand.New(rand.NewSource(seed*1000003 + int64(client)))}
}

// job is one generated request and what its answer must contain.
type job struct {
	req    request
	tenant *tenant
	want   []byte
}

func (g *jobGen) next() job {
	t := &g.tenants[g.rng.Intn(len(g.tenants))]
	in := make([]byte, 1+g.rng.Intn(32))
	g.rng.Read(in)
	return job{
		req:    request{Op: "run", Name: t.name, Source: t.source, Input: in, NoAttest: g.w.noAttest},
		tenant: t,
		want:   g.w.expected(t.tag, in),
	}
}

// checkOutput validates one answer against the job that produced it and
// returns why it is wrong, or "" when it is right.
func (w *workload) checkOutput(j *job, r *response) string {
	switch {
	case !r.OK:
		return fmt.Sprintf("not ok: %s (code %q)", r.Err, r.Code)
	case r.ExitStatus != 0:
		return fmt.Sprintf("exit status %d", r.ExitStatus)
	case !bytes.Equal(r.Output, j.want):
		return fmt.Sprintf("output %q, want %q", r.Output, j.want)
	case !w.noAttest && r.VerifiedAs != j.tenant.name:
		return fmt.Sprintf("verified_as %q, want %q", r.VerifiedAs, j.tenant.name)
	case w.noAttest && r.VerifiedAs != "":
		return fmt.Sprintf("unattested job verified_as %q", r.VerifiedAs)
	case w.maxBatch > 0 && (r.BatchSize < 1 || r.BatchSize > w.maxBatch):
		return fmt.Sprintf("batch_size %d outside [1, %d]", r.BatchSize, w.maxBatch)
	case w.maxBatch == 0 && r.BatchSize != 0:
		return fmt.Sprintf("one-shot quote reported batch_size %d", r.BatchSize)
	}
	return ""
}
