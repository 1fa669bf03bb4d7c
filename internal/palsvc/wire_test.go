package palsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"op":"ping"}`)
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("round trip %q, want %q", got, body)
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized header error %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsEmptyFrame(t *testing.T) {
	var hdr [4]byte
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("complete payload")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadFrame(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestWriteFrameRejectsOversizedBody(t *testing.T) {
	err := WriteFrame(&bytes.Buffer{}, make([]byte, MaxFrame+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body error %v, want ErrFrameTooLarge", err)
	}
}

// startServer brings up a Service behind a loopback TCP listener and
// returns its address.
func startServer(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	s := newTestService(t, cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = s.Serve(l, 30*time.Second) }()
	return s, l.Addr().String()
}

func TestWireRunStatsPing(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Run(&WireRequest{Name: "hello", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("run failed: %s", resp.Err)
	}
	if string(resp.Output) != "hello" || resp.VerifiedAs != "hello" {
		t.Fatalf("output %q verified %q", resp.Output, resp.VerifiedAs)
	}
	if resp.ExecuteNS <= 0 {
		t.Fatal("no virtual execution time reported")
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.SePCRCapacity != 4 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestServeWireConnectionCap: connections over the cap wait in the accept
// backlog. With the cap at two, a third client is answered only after one
// of the first two closes.
func TestServeWireConnectionCap(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	saved := maxConns
	maxConns = 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeWire(l, 0, func(*WireRequest) *WireResponse { return &WireResponse{OK: true} })
	}()
	var conns []io.Closer
	t.Cleanup(func() {
		l.Close()
		for _, c := range conns {
			c.Close()
		}
		<-done // ServeWire is done reading maxConns
		maxConns = saved
	})
	addr := l.Addr().String()

	// Dial's ping handshake proves each of the first two is being served.
	for i := 0; i < 2; i++ {
		cl, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, cl)
	}
	third, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conns = append(conns, third)
	if err := WriteFrame(third, []byte(`{"op":"ping"}`)); err != nil {
		t.Fatal(err)
	}
	_ = third.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var ne net.Error
	if _, err := ReadFrame(third); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("third connection over a cap of two: read %v, want a timeout", err)
	}

	conns[0].Close()
	_ = third.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := ReadFrame(third)
	if err != nil {
		t.Fatalf("third connection not served after one closed: %v", err)
	}
	if !bytes.Contains(body, []byte(`"ok":true`)) {
		t.Fatalf("ping answered %s", body)
	}
}

func TestWireRetryableFlagOnQueueFull(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1, QueueDepth: 1})
	cl, err := Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Saturate from parallel connections until one response comes back
	// with the retryable flag.
	var wg sync.WaitGroup
	sawRetryable := make(chan struct{}, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c2, err := Dial(addr, 0)
			if err != nil {
				return
			}
			defer c2.Close()
			for j := 0; j < 4; j++ {
				resp, err := c2.Run(&WireRequest{Name: "slow", Source: slowSource})
				if err != nil {
					return
				}
				if !resp.OK && resp.Retryable {
					select {
					case sawRetryable <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-sawRetryable:
	default:
		t.Skip("queue never filled on this host")
	}
}

func TestWireConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{Profile: testProfile(4), Workers: 8, QueueDepth: 128})
	const clients = 8
	var wg sync.WaitGroup
	errC := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr, 0)
			if err != nil {
				errC <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 5; j++ {
				resp, err := cl.Run(&WireRequest{Name: "hello", Source: helloSource})
				if err != nil {
					errC <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if !resp.OK {
					errC <- fmt.Errorf("client %d: %s", i, resp.Err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Error(err)
	}
	if m := s.Metrics(); m.Completed != clients*5 {
		t.Fatalf("completed %d, want %d", m.Completed, clients*5)
	}
}
