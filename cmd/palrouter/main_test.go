package main

import (
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"minimaltcb/internal/palsvc"
)

const helloSource = `
	ldi r0, msg
	ldi r1, 5
	svc 6
	ldi r0, 0
	svc 0
msg:	.ascii "hello"
`

func TestResolveBackendsErrors(t *testing.T) {
	for _, tc := range []struct {
		name, backends, want string
	}{
		{"no backends or spawn", "", "need -backends or -spawn"},
		{"list parses to empty", " , ,", "-backends parsed to an empty list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, cleanup, err := resolveBackends(routerOpts{backends: tc.backends})
			cleanup()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("resolveBackends(%q) = %v, %v; want error %q", tc.backends, addrs, err, tc.want)
			}
		})
	}
}

// TestSpawnRoutesAndShutsDown runs the one-command cluster (-spawn 2) on a
// loopback port, routes a job and fetches the fleet stats over TCP, then
// sends SIGTERM and expects run to return cleanly.
func TestSpawnRoutesAndShutsDown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	addr := l.Addr().String()
	l.Close()

	errs := make(chan error, 1)
	go func() {
		errs <- run(routerOpts{
			addr: addr, spawn: 2, pool: 2,
			dialTimeout: time.Second, reqTimeout: 10 * time.Second,
			probeEvery: 20 * time.Millisecond, probeFails: 3,
			connTimeout:  10 * time.Second,
			sloObjective: 0.99, sloTarget: 250 * time.Millisecond,
			machines: 1, sePCRs: 4, queueDepth: 64, keyBits: 1024, seed: 42,
		})
	}()

	// A successful Dial includes the ping handshake, so the router is
	// serving — and has installed its signal handler — once it returns.
	var cl *palsvc.Client
	for deadline := time.Now().Add(30 * time.Second); ; {
		if cl, err = palsvc.Dial(addr, time.Second); err == nil {
			break
		}
		select {
		case err := <-errs:
			t.Fatalf("palrouter exited before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("palrouter never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer cl.Close()

	resp, err := cl.Run(&palsvc.WireRequest{Name: "hello", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || string(resp.Output) != "hello" || resp.VerifiedAs != "hello" || resp.Backend == "" {
		t.Fatalf("routed run answered %+v", resp)
	}
	// The fleet stats are the probers' snapshots, so they catch up with
	// the job within a probe cycle or two.
	for deadline := time.Now().Add(10 * time.Second); ; {
		stats, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed == 1 && stats.SePCRCapacity == 2*4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stats never showed the job on two 4-register backends: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("shutdown on SIGTERM returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("palrouter did not shut down on SIGTERM")
	}
}
