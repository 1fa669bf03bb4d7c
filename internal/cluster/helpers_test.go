package cluster

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/platform"
)

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// testProfile mirrors palsvc's test fixture: the recommended HP dc5750 with
// a small RSA modulus so CA and AIK generation stay fast under -race.
func testProfile(sePCRs int) platform.Profile {
	p := platform.Recommended(platform.HPdc5750(), sePCRs)
	p.KeyBits = 1024
	p.Seed = 42
	return p
}

const helloSource = `
	ldi r0, msg
	ldi r1, 5
	svc 6
	ldi r0, 0
	svc 0
msg:	.ascii "hello"
`

// slowSource busy-loops for 2<<16 iterations — a few milliseconds, enough
// to contend for sePCRs under load.
const slowSource = `
	ldi r0, 0
	ldi r1, 0
	lui r1, 2
loop:	addi r0, 1
	cmp r0, r1
	jnz loop
	ldi r0, 0
	svc 0
`

// spinSource busy-loops for 16384<<16 ≈ 1.07G iterations — far past any
// test's patience, so a hog job holds its sePCR until its deadline kills
// it (the backend needs a Quantum for the wedge kill to preempt).
const spinSource = `
	ldi r0, 0
	ldi r1, 0
	lui r1, 16384
loop:	addi r0, 1
	cmp r0, r1
	jnz loop
	ldi r0, 0
	svc 0
`

// hogJob is a spinner that occupies one sePCR for about holdFor and is then
// wedge-killed by its deadline, releasing the register.
func hogJob(holdFor time.Duration) palsvc.Job {
	return palsvc.Job{Name: "hog", Source: spinSource, NoAttest: true, Deadline: time.Now().Add(holdFor)}
}

// killableListener wraps a listener and tracks accepted connections so a
// test can simulate a backend crash: Kill closes the listener and every
// live connection at once, while the Service behind it keeps running (its
// in-flight jobs still drain — the crash is of the *network* presence,
// which is what the router observes).
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	dead  bool
}

func newKillableListener(t *testing.T) *killableListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	return &killableListener{Listener: l, conns: make(map[net.Conn]struct{})}
}

func (k *killableListener) Accept() (net.Conn, error) {
	c, err := k.Listener.Accept()
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		_ = c.Close()
		return nil, net.ErrClosed
	}
	k.conns[c] = struct{}{}
	k.mu.Unlock()
	return c, nil
}

func (k *killableListener) Kill() {
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		return
	}
	k.dead = true
	conns := make([]net.Conn, 0, len(k.conns))
	for c := range k.conns {
		conns = append(conns, c)
	}
	k.mu.Unlock()
	_ = k.Listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}

// startBackend brings up a real palsvc Service behind a killable loopback
// listener and returns both.
func startBackend(t *testing.T, cfg palsvc.Config) (*palsvc.Service, *killableListener) {
	t.Helper()
	if cfg.Profile.Name == "" {
		cfg.Profile = testProfile(4)
	}
	s, err := palsvc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kl := newKillableListener(t)
	t.Cleanup(func() { kl.Kill(); s.Close() })
	go func() { _ = s.Serve(kl, 30*time.Second) }()
	return s, kl
}

// newTestRouter builds a Router over the given backends with fast probe
// settings; mutate may tweak the config before New.
func newTestRouter(t *testing.T, addrs []string, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Backends:      addrs,
		PoolSize:      4,
		DialTimeout:   time.Second,
		ProbeInterval: 10 * time.Millisecond,
		ProbeFails:    3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// serveRouter exposes a router on loopback TCP, the way tenants reach it.
func serveRouter(t *testing.T, r *Router) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = r.Serve(l, 30*time.Second) }()
	return l.Addr().String()
}

// sourceForPrimary appends unreachable data variants to helloSource until
// the router's placement puts the image on want — how tests aim a job at a
// specific shard without reaching into the ring.
func sourceForPrimary(t *testing.T, r *Router, want string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		src := fmt.Sprintf("%sv%d:\t.ascii \"variant\"\n", helloSource, i)
		if p := r.Placement(src); len(p) > 0 && p[0] == want {
			return src
		}
	}
	t.Fatalf("no source variant maps to %s", want)
	return ""
}

// waitFor polls cond every few milliseconds until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// stubBackend is a hand-rolled wire server with canned health/stats
// answers: the shape of a foreign or pre-health palservd build.
type stubBackend struct {
	l  net.Listener
	mu sync.Mutex
	// health nil simulates an old server: the health op answers with an
	// unknown-op error and clients must fall back to stats.
	health *palsvc.HealthInfo
	stats  palsvc.Metrics
}

func startStub(t *testing.T, health *palsvc.HealthInfo, stats palsvc.Metrics) *stubBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	s := &stubBackend{l: l, health: health, stats: stats}
	t.Cleanup(func() { l.Close() })
	go func() { _ = palsvc.ServeWire(l, 0, s.answer) }()
	return s
}

func (s *stubBackend) addr() string { return s.l.Addr().String() }

func (s *stubBackend) setHealth(h *palsvc.HealthInfo) {
	s.mu.Lock()
	s.health = h
	s.mu.Unlock()
}

func (s *stubBackend) answer(req *palsvc.WireRequest) *palsvc.WireResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case palsvc.OpPing:
		return &palsvc.WireResponse{OK: true}
	case palsvc.OpStats:
		st := s.stats
		return &palsvc.WireResponse{OK: true, Stats: &st}
	case palsvc.OpHealth:
		if s.health == nil {
			return &palsvc.WireResponse{Err: fmt.Sprintf("palsvc: unknown op %q", req.Op)}
		}
		h := *s.health
		return &palsvc.WireResponse{OK: true, Health: &h}
	default:
		return &palsvc.WireResponse{Err: "stub: unsupported op"}
	}
}
