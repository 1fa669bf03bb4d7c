package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// The daemons' wire format (documented in internal/palsvc/wire.go): each
// message is a 4-byte big-endian body length followed by a JSON body, in
// both directions, any number of request/response pairs per connection.
// The benchmark speaks it with its own codec so that it measures the
// protocol, not a client library that may change with the program.

// maxFrame mirrors the daemons' frame bound; a larger header means the
// peer is not speaking the protocol.
const maxFrame = 1 << 20

// request is the subset of the daemons' request fields the benchmark sends.
type request struct {
	Op         string `json:"op"`
	Name       string `json:"name,omitempty"`
	Source     string `json:"source,omitempty"`
	Input      []byte `json:"input,omitempty"`
	NoAttest   bool   `json:"no_attest,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan uint64 `json:"parent_span,omitempty"`
}

// response is the subset of the daemons' response fields the benchmark
// checks or measures.
type response struct {
	OK         bool       `json:"ok"`
	Err        string     `json:"err,omitempty"`
	Code       string     `json:"code,omitempty"`
	Output     []byte     `json:"output,omitempty"`
	ExitStatus uint32     `json:"exit_status,omitempty"`
	VerifiedAs string     `json:"verified_as,omitempty"`
	Attempts   int        `json:"attempts,omitempty"`
	BatchSize  int        `json:"batch_size,omitempty"`
	Backend    string     `json:"backend,omitempty"`
	ExecuteNS  int64      `json:"execute_ns,omitempty"`
	QuoteGenNS int64      `json:"quote_gen_ns,omitempty"`
	Stats      *stats     `json:"stats,omitempty"`
	Trace      *traceDump `json:"trace,omitempty"`
}

// stats is the part of the stats op's snapshot the per-layer table uses.
type stats struct {
	Completed         uint64 `json:"completed"`
	MaxSePCROccupancy int    `json:"sepcr_occupancy_max"`
	QuoteSigns        uint64 `json:"quote_signs"`
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	VerifyMemoHits    uint64 `json:"verify_memo_hits"`
	VerifyMemoMisses  uint64 `json:"verify_memo_misses"`
}

// traceDump is the part of the trace op's payload the benchmark reads.
type traceDump struct {
	Dropped   uint64   `json:"dropped"`
	Truncated int      `json:"truncated"`
	Records   []record `json:"records"`
}

// record is one span or event from a daemon's span ring.
type record struct {
	Kind      string `json:"kind"`
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent"`
	Name      string `json:"name"`
	Cat       string `json:"cat"`
	Node      string `json:"node"`
	WallStart int64  `json:"wall_start_ns"`
	WallDur   int64  `json:"wall_dur_ns"`
	Attrs     []struct {
		K string `json:"k"`
		V string `json:"v"`
	} `json:"attrs"`
}

// attr returns the value of the record's attribute key, or "".
func (r *record) attr(key string) string {
	for _, a := range r.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

// writeFrame writes one length-prefixed frame in a single write.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds %d", len(body), maxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("truncated frame: %w", err)
	}
	return body, nil
}

// conn is one client connection to a daemon.
type conn struct {
	c net.Conn
}

// ioTimeout bounds every round trip, so a wedged daemon fails the run
// instead of hanging it past the benchmark's time limit.
const ioTimeout = 20 * time.Second

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// exchange is one measured round trip: encode, send, receive, decode.
type exchange struct {
	resp      response
	start     time.Time
	rtt       time.Duration // send start to decoded response
	reqBytes  int           // frame bytes sent, header included
	respBytes int           // frame bytes received, header included
}

// do sends req and decodes the answer.
func (c *conn) do(req *request) (exchange, error) {
	var x exchange
	x.start = time.Now()
	if err := c.c.SetDeadline(x.start.Add(ioTimeout)); err != nil {
		return x, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return x, err
	}
	if err := writeFrame(c.c, body); err != nil {
		return x, err
	}
	out, err := readFrame(c.c)
	if err != nil {
		return x, err
	}
	if err := json.Unmarshal(out, &x.resp); err != nil {
		return x, fmt.Errorf("decoding response: %w", err)
	}
	x.rtt = time.Since(x.start)
	x.reqBytes, x.respBytes = 4+len(body), 4+len(out)
	return x, nil
}

// call is do for control ops, where only a successful answer is useful.
func (c *conn) call(req *request) (*response, error) {
	x, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if !x.resp.OK {
		return nil, errors.New(req.Op + ": " + x.resp.Err)
	}
	return &x.resp, nil
}
