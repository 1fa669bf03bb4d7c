package audit

import (
	"bufio"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"minimaltcb/internal/merkle"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/sim"
)

// TreeHead is a signed commitment to the log's first Size events. Sig is a
// PKCS#1 v1.5 signature by the platform AIK over SHA-1 of SigningMessage
// (SHA-1 because that is the modeled TPM's hash mill — see tpm.Measure);
// it is empty when the log has no signer (a verifier-side or router log).
type TreeHead struct {
	Size   uint64      `json:"size"`
	Root   merkle.Hash `json:"root"`
	Node   string      `json:"node,omitempty"`
	VirtNS int64       `json:"virt_ns"`
	Sig    []byte      `json:"sig,omitempty"`
}

// headDomain is the domain-separation prefix of every head signing message.
// TPM quote signatures commit to "QUOT"-prefixed digests, so the two signed
// object kinds can never be confused even under the same AIK.
const headDomain = "minimaltcb/audit/tree-head/v1\n"

// SigningMessage is the byte string the AIK signs: domain prefix, size,
// root, virtual timestamp, and the node name, all in fixed order.
func (h *TreeHead) SigningMessage() []byte {
	msg := make([]byte, 0, len(headDomain)+8+len(h.Root)+8+1+len(h.Node))
	msg = append(msg, headDomain...)
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], h.Size)
	msg = append(msg, u[:]...)
	msg = append(msg, h.Root[:]...)
	binary.BigEndian.PutUint64(u[:], uint64(h.VirtNS))
	msg = append(msg, u[:]...)
	msg = append(msg, byte(len(h.Node)))
	msg = append(msg, h.Node...)
	return msg
}

// VerifySignature checks the head's AIK signature. A nil pub accepts only
// unsigned heads; a signed head with a nil pub (or vice versa) fails.
func (h *TreeHead) VerifySignature(pub *rsa.PublicKey) error {
	if pub == nil {
		if len(h.Sig) != 0 {
			return fmt.Errorf("audit: head size=%d is signed but no AIK public key is available", h.Size)
		}
		return nil
	}
	if len(h.Sig) == 0 {
		return fmt.Errorf("audit: head size=%d is unsigned but the log has an AIK", h.Size)
	}
	d := sha1.Sum(h.SigningMessage())
	if err := verifyPKCS1v15SHA1(pub, d, h.Sig); err != nil {
		return fmt.Errorf("audit: head size=%d signature: %w", h.Size, err)
	}
	return nil
}

// HeadSigner is the platform signing oracle for tree heads. tpm.TPM
// implements it: SignAuditHead signs SHA-1 of the message with the AIK, and
// AIKPublic exposes the verification key that gets persisted alongside the
// log.
type HeadSigner interface {
	SignAuditHead(msg []byte) ([]byte, error)
	AIKPublic() *rsa.PublicKey
}

// Config configures a Log.
type Config struct {
	// Dir is where segments, heads and the AIK public key are persisted.
	// Empty keeps the log memory-only (tests, benchmarks).
	Dir string
	// Node names the emitting node; it is stamped into events that do not
	// carry one and into every tree head.
	Node string
	// SegmentEvents caps events per segment pair before rotation
	// (default 4096).
	SegmentEvents int
	// HeadEvery emits a (signed) tree head every that many appends
	// (default 256). Close always emits a final head covering the tail.
	HeadEvery int
}

// Filenames inside a log directory.
const (
	segPattern = "seg-%06d"
	headsFile  = "heads.jsonl"
	aikFile    = "aik.json"
)

const (
	defaultSegmentEvents = 4096
	defaultHeadEvery     = 256
)

// Log is the append-only audit log: an in-memory event store plus Merkle
// leaves, mirrored to JSONL (human/greppable) and binary (canonical bytes)
// segment files with crash-safe rotation, and a growing list of signed tree
// heads. All methods are safe for concurrent use and nil-safe on the
// receiver, so a disabled stack passes nil logs around freely.
type Log struct {
	cfg Config

	mu       sync.Mutex
	events   []Event
	leaves   []merkle.Hash
	heads    []TreeHead
	signer   HeadSigner
	dropped  uint64
	closed   bool
	lastHead uint64 // size covered by the newest head

	segIndex int // current segment number (1-based)
	segCount int // events in the current segment
	jsonlF   *os.File
	binF     *os.File
	jsonlW   *bufio.Writer
	binW     *bufio.Writer

	// Scratch buffer for canonical encoding, reused under mu.
	scratch []byte

	// Metric handles are nil-safe obs instruments; zero until BindRegistry.
	mEvents    *obs.Counter
	mRotations *obs.Counter
	mDropped   *obs.Counter
	mAppendH   *obs.Histogram
}

// Open creates or resumes a log. An existing directory is recovered: both
// files of every segment are scanned, a truncated tail (torn final record
// after a crash) is trimmed from both views, and appends resume at the next
// sequence number — so heads emitted before and after a restart chain into
// one consistent tree.
func Open(cfg Config) (*Log, error) {
	if cfg.SegmentEvents <= 0 {
		cfg.SegmentEvents = defaultSegmentEvents
	}
	if cfg.HeadEvery <= 0 {
		cfg.HeadEvery = defaultHeadEvery
	}
	l := &Log{cfg: cfg, segIndex: 1}
	if cfg.Dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// recover loads existing segments and heads, trimming a torn tail.
func (l *Log) recover() error {
	segs, err := listSegments(l.cfg.Dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		events, offJ, offB, err := readSegment(l.cfg.Dir, seg, i == len(segs)-1)
		if err != nil {
			return err
		}
		if i == len(segs)-1 {
			// Trim the torn tail so appends resume on a clean boundary.
			if err := os.Truncate(segPath(l.cfg.Dir, seg, ".jsonl"), offJ); err != nil {
				return fmt.Errorf("audit: %w", err)
			}
			if err := os.Truncate(segPath(l.cfg.Dir, seg, ".bin"), offB); err != nil {
				return fmt.Errorf("audit: %w", err)
			}
		}
		for _, e := range events {
			if e.Seq != uint64(len(l.events)) {
				return fmt.Errorf("audit: segment %d: seq %d where %d expected (gap or reorder)",
					seg, e.Seq, len(l.events))
			}
			l.scratch = e.Canonical(l.scratch[:0])
			l.leaves = append(l.leaves, merkle.LeafHash(l.scratch))
			l.events = append(l.events, e)
		}
		l.segIndex = seg
		l.segCount = len(events)
	}
	heads, err := readHeads(l.cfg.Dir)
	if err != nil {
		return err
	}
	// Heads beyond the recovered event count (their events were torn off)
	// are dropped; keeping them would make every future root inconsistent.
	for _, h := range heads {
		if h.Size <= uint64(len(l.events)) {
			l.heads = append(l.heads, h)
			l.lastHead = h.Size
		}
	}
	if len(l.heads) < len(heads) {
		if err := writeHeads(l.cfg.Dir, l.heads); err != nil {
			return err
		}
	}
	return nil
}

// openSegment opens the current segment files for appending.
func (l *Log) openSegment() error {
	base := segPath(l.cfg.Dir, l.segIndex, "")
	jf, err := os.OpenFile(base+".jsonl", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	bf, err := os.OpenFile(base+".bin", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		jf.Close()
		return fmt.Errorf("audit: %w", err)
	}
	l.jsonlF, l.binF = jf, bf
	l.jsonlW, l.binW = bufio.NewWriter(jf), bufio.NewWriter(bf)
	return nil
}

// SetSigner installs the head-signing oracle (idempotent: the first signer
// wins) and persists its AIK public key next to the segments so offline
// verification needs nothing but the directory. palsvc.New calls this with
// machine 0's TPM; attestd with its platform TPM.
func (l *Log) SetSigner(s HeadSigner) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.signer != nil {
		return
	}
	l.signer = s
	if l.cfg.Dir != "" {
		if err := appendAIK(filepath.Join(l.cfg.Dir, aikFile), s.AIKPublic()); err != nil {
			l.dropped++
			l.mDropped.Inc()
		}
	}
}

// BindRegistry registers the log's instruments on a metrics registry.
func (l *Log) BindRegistry(r *obs.Registry) {
	if l == nil || r == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mEvents = r.Counter("audit_events_total", "Events appended to the audit log.")
	l.mRotations = r.Counter("audit_segment_rotations_total", "Audit log segment rotations.")
	l.mDropped = r.Counter("audit_events_dropped_total", "Audit events dropped on persistence failure or append-after-close.")
	l.mAppendH = r.Histogram("audit_append_seconds", "Wall-clock audit append latency in seconds.", nil)
	r.GaugeFunc("audit_log_size", "Events currently in the audit log.",
		func() float64 { return float64(l.Size()) })
}

// Recorder returns an emission handle bound to a machine index and its
// virtual clock (either may be zero/nil for service-level events). A nil
// log yields a nil recorder, whose Record is a free no-op — the disabled
// fast path pinned at zero allocations.
func (l *Log) Recorder(clock *sim.Clock, machine int) *Recorder {
	if l == nil {
		return nil
	}
	return &Recorder{log: l, clock: clock, machine: machine}
}

// Recorder stamps machine identity and virtual time onto events before
// appending them. It is the type the emission hooks in sksm, palsvc and
// cluster hold.
type Recorder struct {
	log     *Log
	clock   *sim.Clock
	machine int
}

// Enabled reports whether records reach a live log.
func (r *Recorder) Enabled() bool { return r != nil && r.log != nil }

// Record stamps and appends one event. Nil receivers no-op without
// allocating, so call sites need no guard.
func (r *Recorder) Record(e Event) {
	if r == nil || r.log == nil {
		return
	}
	e.Machine = r.machine
	if r.clock != nil {
		e.VirtNS = int64(r.clock.Now())
	}
	r.log.Append(e)
}

// Append assigns the next sequence number, hashes the event into the tree,
// persists both views, and emits a signed head on the period boundary.
// Persistence failures are counted as drops but never block the pipeline —
// the event stays queryable in memory and the gap is visible to VerifyChain.
func (l *Log) Append(e Event) {
	if l == nil {
		return
	}
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.dropped++
		l.mDropped.Inc()
		l.mu.Unlock()
		return
	}
	e.Seq = uint64(len(l.events))
	if e.Node == "" {
		e.Node = l.cfg.Node
	}
	e.clamp()
	l.scratch = e.Canonical(l.scratch[:0])
	l.leaves = append(l.leaves, merkle.LeafHash(l.scratch))
	l.events = append(l.events, e)
	l.persistLocked(&e)
	if len(l.events)%l.cfg.HeadEvery == 0 {
		l.emitHeadLocked()
	}
	ev, hist := l.mEvents, l.mAppendH
	l.mu.Unlock()
	ev.Inc()
	hist.Observe(time.Since(start).Seconds())
}

// persistLocked writes the event's JSON line and binary frame (u32 length
// prefix + canonical bytes, already in l.scratch) and rotates segments.
func (l *Log) persistLocked(e *Event) {
	if l.cfg.Dir == "" {
		return
	}
	line, err := json.Marshal(e)
	if err == nil {
		_, err = l.jsonlW.Write(append(line, '\n'))
	}
	if err == nil {
		var u [4]byte
		binary.BigEndian.PutUint32(u[:], uint32(len(l.scratch)))
		if _, err = l.binW.Write(u[:]); err == nil {
			_, err = l.binW.Write(l.scratch)
		}
	}
	if err != nil {
		l.dropped++
		l.mDropped.Inc()
		return
	}
	l.segCount++
	if l.segCount >= l.cfg.SegmentEvents {
		l.rotateLocked()
	}
}

// rotateLocked flushes and closes the current segment pair and opens the
// next. A failed open leaves the log memory-only; subsequent appends count
// as dropped rather than crash the service.
func (l *Log) rotateLocked() {
	l.closeSegmentLocked()
	l.segIndex++
	l.segCount = 0
	if err := l.openSegment(); err != nil {
		l.jsonlW, l.binW = nil, nil
		l.cfg.Dir = ""
	}
	l.mRotations.Inc()
}

func (l *Log) closeSegmentLocked() {
	if l.jsonlW != nil {
		_ = l.jsonlW.Flush()
		_ = l.jsonlF.Close()
	}
	if l.binW != nil {
		_ = l.binW.Flush()
		_ = l.binF.Close()
	}
}

// emitHeadLocked computes the root over everything appended so far, signs
// it if a signer is installed, and appends it to heads.jsonl. Segment
// writers are flushed first: the signed head is the durability boundary.
func (l *Log) emitHeadLocked() {
	if uint64(len(l.events)) == l.lastHead {
		return
	}
	h := TreeHead{
		Size: uint64(len(l.events)),
		Root: merkle.Root(l.leaves),
		Node: l.cfg.Node,
	}
	if n := len(l.events); n > 0 {
		h.VirtNS = l.events[n-1].VirtNS
	}
	if l.signer != nil {
		sig, err := l.signer.SignAuditHead(h.SigningMessage())
		if err != nil {
			l.dropped++
			l.mDropped.Inc()
			return
		}
		h.Sig = sig
	}
	l.heads = append(l.heads, h)
	l.lastHead = h.Size
	if l.cfg.Dir == "" {
		return
	}
	if l.jsonlW != nil {
		_ = l.jsonlW.Flush()
		_ = l.binW.Flush()
	}
	if err := appendHead(l.cfg.Dir, &h); err != nil {
		l.dropped++
		l.mDropped.Inc()
	}
}

// Sync forces a tree head over the current tail and flushes persistence.
func (l *Log) Sync() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.emitHeadLocked()
	}
}

// Close emits a final head covering the tail — so every persisted event is
// provable against a signed head — and closes the segment files. Appends
// after Close count as dropped.
func (l *Log) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.emitHeadLocked()
	l.closeSegmentLocked()
	l.closed = true
}

// Head returns the newest tree head, or nil before the first one.
func (l *Log) Head() *TreeHead {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.heads) == 0 {
		return nil
	}
	h := l.heads[len(l.heads)-1]
	return &h
}

// Size returns the number of events appended.
func (l *Log) Size() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.events))
}

// Dropped returns how many events failed to persist or arrived after Close.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Node returns the configured node name.
func (l *Log) Node() string {
	if l == nil {
		return ""
	}
	return l.cfg.Node
}

// Query selects events from a log. Zero fields match everything; Limit
// bounds the result to the newest matches (ascending order preserved).
type Query struct {
	Tenant string
	Trace  obs.TraceID
	// Image matches on the hex prefix of the event's Image digest.
	Image string
	// Since selects events with Seq >= Since.
	Since uint64
	Limit int
}

func (q *Query) match(e *Event) bool {
	if e.Seq < q.Since {
		return false
	}
	if q.Tenant != "" && e.Tenant != q.Tenant {
		return false
	}
	if !q.Trace.IsZero() && e.Trace != q.Trace {
		return false
	}
	if q.Image != "" && !strings.HasPrefix(e.Image.String(), strings.ToLower(q.Image)) {
		return false
	}
	return true
}

// Select returns matching events in sequence order and how many older
// matches the Limit cut off.
func (l *Log) Select(q Query) (events []Event, truncated int) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.events {
		if q.match(&l.events[i]) {
			events = append(events, l.events[i])
		}
	}
	if q.Limit > 0 && len(events) > q.Limit {
		truncated = len(events) - q.Limit
		events = events[truncated:]
	}
	return events, truncated
}

// FilterEvents applies a Query to an event slice loaded outside any live
// log (LoadDir output) — the offline twin of Select, with the same
// newest-matches Limit semantics.
func FilterEvents(events []Event, q Query) (matched []Event, truncated int) {
	for i := range events {
		if q.match(&events[i]) {
			matched = append(matched, events[i])
		}
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		truncated = len(matched) - q.Limit
		matched = matched[truncated:]
	}
	return matched, truncated
}

// Prove generates an inclusion proof for event seq against the newest head.
// It returns the proof, the head, and false when seq is not yet covered by
// any head.
func (l *Log) Prove(seq uint64) (proof []merkle.Hash, head *TreeHead, ok bool) {
	if l == nil {
		return nil, nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.heads) == 0 {
		return nil, nil, false
	}
	h := l.heads[len(l.heads)-1]
	if seq >= h.Size {
		return nil, nil, false
	}
	return merkle.InclusionProof(l.leaves[:h.Size], int(seq)), &h, true
}

// --- segment and head file I/O, shared with the offline verifier ---

func segPath(dir string, idx int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, idx)+ext)
}

// listSegments returns the segment indices present in dir, ascending, and
// checks they are contiguous from 1.
func listSegments(dir string) ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	var segs []int
	for _, m := range matches {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(m), segPattern+".jsonl", &idx); err == nil {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	for i, s := range segs {
		if s != i+1 {
			return nil, fmt.Errorf("audit: segment files not contiguous: missing seg-%06d", i+1)
		}
	}
	return segs, nil
}

// readSegment loads one segment pair. It returns the events whose JSON and
// binary records both parsed, plus the byte offsets just past the last good
// record in each file. tolerateTail permits a torn final record (crash
// recovery on the newest segment); earlier segments must be whole.
// A mismatch between the JSON event's canonical re-encoding and the stored
// binary frame is reported as an error — that is tamper evidence, not a
// torn write.
func readSegment(dir string, idx int, tolerateTail bool) (events []Event, jsonlOff, binOff int64, err error) {
	jb, err := os.ReadFile(segPath(dir, idx, ".jsonl"))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("audit: %w", err)
	}
	bb, err := os.ReadFile(segPath(dir, idx, ".bin"))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("audit: %w", err)
	}
	var scratch []byte
	jpos, bpos := int64(0), int64(0)
	for {
		// Next complete JSON line.
		rest := jb[jpos:]
		nl := -1
		for i, c := range rest {
			if c == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // no complete line left
		}
		var e Event
		jerr := json.Unmarshal(rest[:nl], &e)
		// Next complete binary frame.
		var canonical []byte
		berr := error(nil)
		if int64(len(bb))-bpos < 4 {
			berr = fmt.Errorf("truncated frame header")
		} else {
			n := int64(binary.BigEndian.Uint32(bb[bpos:]))
			if int64(len(bb))-bpos-4 < n {
				berr = fmt.Errorf("truncated frame body")
			} else {
				canonical = bb[bpos+4 : bpos+4+n]
			}
		}
		if jerr != nil || berr != nil {
			if tolerateTail {
				break
			}
			return nil, 0, 0, fmt.Errorf("audit: segment %d corrupt at record %d (json: %v, bin: %v)",
				idx, len(events), jerr, berr)
		}
		scratch = e.Canonical(scratch[:0])
		if string(scratch) != string(canonical) {
			return nil, 0, 0, fmt.Errorf("audit: segment %d record %d: JSON and binary views disagree (tampering or split-brain write)",
				idx, len(events))
		}
		events = append(events, e)
		jpos += int64(nl) + 1
		bpos += 4 + int64(len(canonical))
	}
	return events, jpos, bpos, nil
}

func readHeads(dir string) ([]TreeHead, error) {
	b, err := os.ReadFile(filepath.Join(dir, headsFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	var heads []TreeHead
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var h TreeHead
		if err := json.Unmarshal([]byte(line), &h); err != nil {
			// A torn final head line is recoverable; the next Sync rewrites.
			break
		}
		heads = append(heads, h)
	}
	return heads, nil
}

func appendHead(dir string, h *TreeHead) error {
	f, err := os.OpenFile(filepath.Join(dir, headsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return err
}

func writeHeads(dir string, heads []TreeHead) error {
	var b []byte
	for i := range heads {
		line, err := json.Marshal(&heads[i])
		if err != nil {
			return err
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	return os.WriteFile(filepath.Join(dir, headsFile), b, 0o644)
}
