package palsvc

import (
	"testing"
	"time"
)

// TestRunLoadOpenLoop drives the fixed-arrival mode palservd -open-loop
// uses: every scheduled arrival is sent and answered, the arrivals follow
// Rate, and each tenant's slowest requests are kept under its own name.
func TestRunLoadOpenLoop(t *testing.T) {
	_, addr := startServer(t, Config{})
	const rate, duration = 100.0, time.Second
	rep, err := RunLoad(LoadConfig{
		Addr: addr, OpenLoop: true, Rate: rate, Tenants: 2, Clients: 4,
		DialTimeout: 5 * time.Second, Duration: duration,
		Name: "hello", Source: helloSource, NoAttest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConnErrors != 0 || rep.OK != rep.Sent {
		t.Fatalf("open loop: %v", rep)
	}
	if want := rate * duration.Seconds(); float64(rep.Sent) < 0.7*want || float64(rep.Sent) > 1.3*want {
		t.Fatalf("open loop sent %d, want %.0f ±30%%", rep.Sent, want)
	}
	if len(rep.Slowest) != 2 || len(rep.Slowest["hello-t0"]) == 0 || len(rep.Slowest["hello-t1"]) == 0 {
		t.Fatalf("slowest keyed by %v, want one entry per tenant hello-t0, hello-t1", rep.Slowest)
	}
}
