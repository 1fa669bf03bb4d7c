package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"minimaltcb/internal/lpc"
	"minimaltcb/internal/merkle"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/tpm"
)

// newTestSigner builds a real simulated TPM (small key for speed) to sign
// heads — the same code path palsvc wires for machine 0.
func newTestSigner(t *testing.T) *tpm.TPM {
	t.Helper()
	clock := sim.NewClock()
	chip, err := tpm.New(clock, lpc.NewBus(clock, lpc.FullSpeed()), tpm.Config{KeyBits: 512, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func fillLog(t *testing.T, l *Log, n int, tenant string) {
	t.Helper()
	rec := l.Recorder(nil, 0)
	for i := 0; i < n; i++ {
		rec.Record(Event{Type: EventSePCRExtend, Handle: i % 8, Tenant: tenant,
			Detail: "round"})
	}
}

func mustVerify(t *testing.T, dir string) *Report {
	t.Helper()
	rep, err := VerifyChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("log does not verify: %v", err)
	}
	return rep
}

// TestPersistReopenAppend is the cross-restart consistency test: a log
// written in two sessions must verify as one chain, with consistency
// proofs holding between the pre- and post-restart heads.
func TestPersistReopenAppend(t *testing.T) {
	dir := t.TempDir()
	signer := newTestSigner(t)
	cfg := Config{Dir: dir, Node: "n0", SegmentEvents: 64, HeadEvery: 32}

	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.SetSigner(signer)
	fillLog(t, l, 100, "alice")
	if l.Size() != 100 {
		t.Fatalf("size %d, want 100", l.Size())
	}
	l.Close()
	rep := mustVerify(t, dir)
	if rep.Events != 100 || rep.Uncovered != 0 {
		t.Fatalf("report %+v: want 100 events all covered", rep)
	}
	if rep.SignedHeads == 0 {
		t.Fatal("no signed heads")
	}
	if rep.Segments < 2 {
		t.Fatalf("%d segments, want rotation at 64 events", rep.Segments)
	}

	// Restart: sequence numbers continue, heads stay consistent.
	l, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.SetSigner(signer)
	if l.Size() != 100 {
		t.Fatalf("recovered size %d, want 100", l.Size())
	}
	fillLog(t, l, 50, "bob")
	l.Close()
	rep = mustVerify(t, dir)
	if rep.Events != 150 || rep.Uncovered != 0 {
		t.Fatalf("report %+v: want 150 events all covered", rep)
	}

	events, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: restart broke contiguity", i, e.Seq)
		}
	}
	matched, _ := FilterEvents(events, Query{Tenant: "bob"})
	if len(matched) != 50 {
		t.Fatalf("%d bob events, want 50", len(matched))
	}
}

// TestCrashRecoveryTornTail simulates a crash mid-append: a partial final
// record in both views must be truncated away, not poison the log.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Node: "n0", SegmentEvents: 1024, HeadEvery: 8}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, 20, "alice")
	l.Close()

	// Tear the tail: half a JSON line and a length prefix promising more
	// bytes than exist.
	jl := filepath.Join(dir, "seg-000001.jsonl")
	f, err := os.OpenFile(jl, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":20,"type":"sepcr_ex`)
	f.Close()
	bin := filepath.Join(dir, "seg-000001.bin")
	fb, err := os.OpenFile(bin, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad})
	fb.Close()

	l, err = Open(cfg)
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	if l.Size() != 20 {
		t.Fatalf("recovered size %d, want 20", l.Size())
	}
	fillLog(t, l, 4, "alice")
	l.Close()
	rep := mustVerify(t, dir)
	if rep.Events != 24 || rep.Uncovered != 0 {
		t.Fatalf("report %+v after torn-tail recovery", rep)
	}
}

// tamperFile rewrites one file through fn and returns.
func tamperFile(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSealedLog creates a signed, closed log for the tamper matrix.
func writeSealedLog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Node: "n0", HeadEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSigner(newTestSigner(t))
	fillLog(t, l, 24, "alice")
	l.Close()
	mustVerify(t, dir)
	return dir
}

// The persisted-leaf leg: a byte flipped in a JSONL field diverges from
// the canonical binary mirror and breaks the recomputed root.
func TestTamperLeafField(t *testing.T) {
	dir := writeSealedLog(t)
	tamperFile(t, filepath.Join(dir, "seg-000001.jsonl"), func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"alice"`), []byte(`"alicf"`), 1)
	})
	rep, err := VerifyChain(dir)
	if err == nil && rep.Err() == nil {
		t.Fatal("leaf tamper verified clean")
	}
}

// The binary-segment leg: flipping a payload byte in the .bin mirror is
// caught as divergence between the two views.
func TestTamperBinSegment(t *testing.T) {
	dir := writeSealedLog(t)
	tamperFile(t, filepath.Join(dir, "seg-000001.bin"), func(b []byte) []byte {
		b[len(b)/2] ^= 0x01
		return b
	})
	rep, err := VerifyChain(dir)
	if err == nil && rep.Err() == nil {
		t.Fatal("binary tamper verified clean")
	}
}

// The signed-head leg, twice: a flipped root must fail the recomputation
// check, and a flipped signature must fail AIK verification.
func TestTamperSignedHead(t *testing.T) {
	dir := writeSealedLog(t)
	heads := filepath.Join(dir, "heads.jsonl")
	orig, err := os.ReadFile(heads)
	if err != nil {
		t.Fatal(err)
	}

	// Root flip: swap a hex digit in the first head's root.
	tamperFile(t, heads, func(b []byte) []byte {
		s := string(b)
		i := strings.Index(s, `"root":"`)
		if i < 0 {
			t.Fatal("no root field in heads.jsonl")
		}
		j := i + len(`"root":"`)
		repl := byte('0')
		if s[j] == '0' {
			repl = '1'
		}
		return []byte(s[:j] + string(repl) + s[j+1:])
	})
	if rep, err := VerifyChain(dir); err == nil && rep.Err() == nil {
		t.Fatal("head-root tamper verified clean")
	}

	// Signature flip: restore, then corrupt the base64 sig payload.
	if err := os.WriteFile(heads, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	tamperFile(t, heads, func(b []byte) []byte {
		s := string(b)
		i := strings.Index(s, `"sig":"`)
		if i < 0 {
			t.Fatal("no sig field in heads.jsonl")
		}
		j := i + len(`"sig":"`)
		repl := byte('A')
		if s[j] == 'A' {
			repl = 'B'
		}
		return []byte(s[:j] + string(repl) + s[j+1:])
	})
	if rep, err := VerifyChain(dir); err == nil && rep.Err() == nil {
		t.Fatal("head-signature tamper verified clean")
	}
}

// A log that signs no heads must not pass for one that promised an AIK:
// dropping aik.json hides the signer, which VerifyChain flags because the
// heads still carry signatures.
// TestAIKRotationAcrossReopen: a restart mints a fresh AIK (a rebooted
// platform regenerates its key), and heads signed under the old key must
// keep verifying — aik.json accumulates one key per signer epoch.
func TestAIKRotationAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Node: "n0", HeadEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSigner(newTestSigner(t))
	fillLog(t, l, 20, "alice")
	l.Close()

	l, err = Open(Config{Dir: dir, Node: "n0", HeadEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	rotated, err := tpm.New(clock, lpc.NewBus(clock, lpc.FullSpeed()), tpm.Config{KeyBits: 512, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSigner(rotated)
	fillLog(t, l, 20, "alice")
	l.Close()

	keys, err := ReadAIKs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("aik.json holds %d key(s) after rotation, want 2", len(keys))
	}
	rep := mustVerify(t, dir)
	if rep.Events != 40 || rep.SignedHeads < 2 {
		t.Fatalf("post-rotation report: %+v", rep)
	}
}

func TestTamperDropAIK(t *testing.T) {
	dir := writeSealedLog(t)
	if err := os.Remove(filepath.Join(dir, "aik.json")); err != nil {
		t.Fatal(err)
	}
	if rep, err := VerifyChain(dir); err == nil && rep.Err() == nil {
		t.Fatal("signed heads verified with no AIK on record")
	}
}

// TestDisabledRecordAllocs pins the audit-disabled fast path at zero
// allocations: a nil recorder's Record must compile down to a nil check.
func TestDisabledRecordAllocs(t *testing.T) {
	var rec *Recorder
	ev := Event{Type: EventSLaunch, Handle: 3, Tenant: "t"}
	if n := testing.AllocsPerRun(1000, func() {
		rec.Record(ev)
	}); n != 0 {
		t.Fatalf("nil-recorder Record allocates %v/op, want 0", n)
	}
}

func TestDroppedAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	rec := l.Recorder(nil, 0)
	rec.Record(Event{Type: EventSLaunch})
	l.Close()
	rec.Record(Event{Type: EventSLaunch})
	if l.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1 (append after close)", l.Dropped())
	}
}

func TestProveInclusionLive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Node: "n0", HeadEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, l, 40, "alice")
	l.Sync()
	proof, head, ok := l.Prove(7)
	if !ok {
		t.Fatal("no proof for covered event")
	}
	events, _ := l.Select(Query{})
	leaf := merkle.LeafHash(events[7].Canonical(nil))
	if !merkle.VerifyInclusion(leaf, 7, int(head.Size), proof, head.Root) {
		t.Fatal("live inclusion proof rejected")
	}
	l.Close()
}

func BenchmarkAppendMemory(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Config{Dir: dir, Node: "bench", SegmentEvents: 1 << 20, HeadEvery: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := l.Recorder(nil, 0)
	ev := Event{Type: EventSePCRExtend, Handle: 1, Tenant: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(ev)
	}
}

func BenchmarkAppendDisabled(b *testing.B) {
	var rec *Recorder
	ev := Event{Type: EventSePCRExtend, Handle: 1, Tenant: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(ev)
	}
}

func BenchmarkVerifyChain(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Config{Dir: dir, Node: "bench", HeadEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	rec := l.Recorder(nil, 0)
	for i := 0; i < 512; i++ {
		rec.Record(Event{Type: EventSePCRExtend, Handle: i % 8, Tenant: "bench"})
	}
	l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := VerifyChain(dir)
		if err != nil || rep.Err() != nil {
			b.Fatal("bench log does not verify")
		}
	}
}
