package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte(`{"op":"ping"}`)); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; !bytes.Equal(got, []byte{0, 0, 0, 13}) {
		t.Fatalf("header %v, want big-endian 13", got)
	}
	body, err := readFrame(&buf)
	if err != nil || string(body) != `{"op":"ping"}` {
		t.Fatalf("readFrame = %q, %v", body, err)
	}
	for _, hdr := range [][]byte{{0, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff}} {
		if _, err := readFrame(bytes.NewReader(hdr)); err == nil {
			t.Errorf("header %v accepted", hdr)
		}
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, '{'})); err == nil {
		t.Error("truncated body accepted")
	}
}

// buildPalservd compiles the repository's palservd for tests that need a
// live daemon.
func buildPalservd(t *testing.T) string {
	t.Helper()
	if _, err := os.Stat("../cmd/palservd"); err != nil {
		t.Skip("not inside the repository checkout")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "palservd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/palservd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building palservd: %v\n%s", err, out)
	}
	return bin
}

func TestFrameCodecAgainstLivePalservd(t *testing.T) {
	d, err := startDaemon(buildPalservd(t), []string{"-addr", "127.0.0.1:0"}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	c, err := dial(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hand-built frame, decoded without the response type.
	if err := writeFrame(c.c, []byte(`{"op":"ping"}`)); err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(c.c)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil || raw["ok"] != true {
		t.Fatalf("ping answer %s (%v), want ok", body, err)
	}

	// The same exchange through the measured round trip.
	x, err := c.do(&request{Op: "ping"})
	if err != nil || !x.resp.OK {
		t.Fatalf("ping: %+v, %v", x.resp, err)
	}
	if x.reqBytes != 4+len(`{"op":"ping"}`) || x.respBytes != 4+len(body) || x.rtt <= 0 {
		t.Errorf("reqBytes=%d respBytes=%d rtt=%v", x.reqBytes, x.respBytes, x.rtt)
	}
	if _, err := c.call(&request{Op: "no-such-op"}); err == nil {
		t.Error("unknown op answered ok")
	}
}
