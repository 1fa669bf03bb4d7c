package palsvc_test

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"minimaltcb/internal/cluster"
	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/platform"
)

// wireServer is one server that answers tenants through palsvc.ServeWire,
// with the text its dispatch gives an unknown op.
type wireServer struct {
	name      string
	addr      string
	unknownOp string
}

// wireServers starts a palsvc.Service and a cluster.Router in front of it,
// each on its own loopback listener.
func wireServers(t *testing.T) []wireServer {
	t.Helper()
	prof := platform.Recommended(platform.HPdc5750(), 4)
	prof.KeyBits = 1024
	prof.Seed = 42
	s, err := palsvc.New(palsvc.Config{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	svcAddr := listen(t, s.Serve)

	r, err := cluster.New(cluster.Config{Backends: []string{svcAddr}, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return []wireServer{
		{name: "service", addr: svcAddr, unknownOp: `unknown op "explode"`},
		{name: "router", addr: listen(t, r.Serve), unknownOp: `cluster: unknown op "explode"`},
	}
}

func listen(t *testing.T, serve func(net.Listener, time.Duration) error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = serve(l, 30*time.Second) }()
	return l.Addr().String()
}

func TestWireUnknownOp(t *testing.T) {
	for _, srv := range wireServers(t) {
		t.Run(srv.name, func(t *testing.T) {
			cl, err := palsvc.Dial(srv.addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			resp, err := cl.Do(&palsvc.WireRequest{Op: "explode"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK || resp.Err != srv.unknownOp {
				t.Fatalf("unknown op answered %+v, want err %q", resp, srv.unknownOp)
			}
		})
	}
}

func TestWireMalformedJSONKeepsConnectionUsable(t *testing.T) {
	for _, srv := range wireServers(t) {
		t.Run(srv.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := palsvc.WriteFrame(conn, []byte("{not json")); err != nil {
				t.Fatal(err)
			}
			body, err := palsvc.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(body, []byte("bad request")) {
				t.Fatalf("response %s", body)
			}
			// The connection survives a malformed request.
			if err := palsvc.WriteFrame(conn, []byte(`{"op":"ping"}`)); err != nil {
				t.Fatal(err)
			}
			if body, err = palsvc.ReadFrame(conn); err != nil {
				t.Fatal(err)
			}
			var resp palsvc.WireResponse
			if err := json.Unmarshal(body, &resp); err != nil || !resp.OK {
				t.Fatalf("ping after a malformed request answered %s (%v)", body, err)
			}
		})
	}
}
