package audit

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"

	"minimaltcb/internal/merkle"
)

// This file is the standalone verifier: everything needed to audit a log
// directory offline — no Log, no TPM, no network. tcbaudit -verify and the
// soak teardowns call VerifyChain; the pieces (LoadDir, VerifySignature,
// and internal/merkle's proof verifiers) are exported for callers that
// want to check a single claim.

// verifyPKCS1v15SHA1 checks an AIK signature over a SHA-1 digest. The
// modeled TPM is a v1.2 device, whose signing mill is SHA-1/PKCS#1 v1.5 —
// the audit layer inherits that, and docs/AUDIT.md spells out the
// consequences.
func verifyPKCS1v15SHA1(pub *rsa.PublicKey, digest [sha1.Size]byte, sig []byte) error {
	return rsa.VerifyPKCS1v15(pub, crypto.SHA1, digest[:], sig)
}

// aikJSON is one persisted AIK public key. aik.json is JSONL, one key per
// line, append-only: a platform reboot (or AIK rotation) mints a fresh
// key, and heads signed under the old one must keep verifying — the file
// accumulates every key the log has ever been signed under.
type aikJSON struct {
	ModulusHex string `json:"modulus_hex"`
	Exponent   int    `json:"exponent"`
}

// appendAIK records pub in the log's key file unless it is already there.
func appendAIK(path string, pub *rsa.PublicKey) error {
	if pub == nil {
		return fmt.Errorf("audit: nil AIK public key")
	}
	existing, err := readAIKFile(path)
	if err != nil {
		return err
	}
	for _, k := range existing {
		if k.E == pub.E && k.N.Cmp(pub.N) == 0 {
			return nil
		}
	}
	b, err := json.Marshal(aikJSON{ModulusHex: pub.N.Text(16), Exponent: pub.E})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(b, '\n'))
	return err
}

func readAIKFile(path string) ([]*rsa.PublicKey, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	var keys []*rsa.PublicKey
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var a aikJSON
		if err := json.Unmarshal(line, &a); err != nil {
			return nil, fmt.Errorf("audit: aik.json: %w", err)
		}
		pub := &rsa.PublicKey{N: new(big.Int), E: a.Exponent}
		if _, ok := pub.N.SetString(a.ModulusHex, 16); !ok {
			return nil, fmt.Errorf("audit: aik.json: bad modulus")
		}
		keys = append(keys, pub)
	}
	return keys, nil
}

// ReadAIKs loads every AIK public key persisted next to a log's segments,
// oldest first. A missing file returns (nil, nil): the log is unsigned.
func ReadAIKs(dir string) ([]*rsa.PublicKey, error) {
	return readAIKFile(filepath.Join(dir, aikFile))
}

// ReadAIK loads the newest AIK public key, or (nil, nil) for an unsigned
// log. Verification against a log that outlived a platform reboot needs
// every key — use ReadAIKs.
func ReadAIK(dir string) (*rsa.PublicKey, error) {
	keys, err := ReadAIKs(dir)
	if err != nil || len(keys) == 0 {
		return nil, err
	}
	return keys[len(keys)-1], nil
}

// verifyHeadAnyKey accepts a head signed under any of the log's recorded
// AIKs: a restart mints a fresh key, and older heads stay bound to the key
// that was live when they were emitted.
func verifyHeadAnyKey(h *TreeHead, aiks []*rsa.PublicKey) error {
	if len(aiks) == 0 {
		return h.VerifySignature(nil)
	}
	var err error
	for _, pub := range aiks {
		if err = h.VerifySignature(pub); err == nil {
			return nil
		}
	}
	return err
}

// Report is the outcome of verifying a log directory. Problems is empty for
// a clean chain; Uncovered counts trailing events not yet under any head
// (possible only when the writer is still live — Close always seals the
// tail).
type Report struct {
	Dir         string
	Events      int
	Segments    int
	Heads       int
	SignedHeads int
	Uncovered   int
	Problems    []string
}

// Err returns a non-nil error when the chain failed verification.
func (r *Report) Err() error {
	if len(r.Problems) == 0 {
		return nil
	}
	return fmt.Errorf("audit: chain verification failed: %s (and %d more)",
		r.Problems[0], len(r.Problems)-1)
}

func (r *Report) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// String renders a one-line summary.
func (r *Report) String() string {
	state := "OK"
	if len(r.Problems) > 0 {
		state = fmt.Sprintf("FAILED (%d problems)", len(r.Problems))
	}
	return fmt.Sprintf("%s: %d events, %d segments, %d heads (%d signed), %d uncovered: %s",
		r.Dir, r.Events, r.Segments, r.Heads, r.SignedHeads, r.Uncovered, state)
}

// LoadDir reads every event persisted in a log directory, in sequence
// order, without verifying the chain — the query path of tcbaudit. Partial
// trailing records are skipped, matching crash-recovery semantics.
func LoadDir(dir string) ([]Event, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var all []Event
	for i, seg := range segs {
		events, _, _, err := readSegment(dir, seg, i == len(segs)-1)
		if err != nil {
			return nil, err
		}
		all = append(all, events...)
	}
	return all, nil
}

// VerifyChain audits a persisted log directory end to end:
//
//   - every segment's JSON and binary views agree byte for byte with the
//     canonical re-encoding (readSegment enforces this)
//   - sequence numbers are gapless from 0
//   - every tree head's root matches the recomputation over the canonical
//     leaves it covers, and its AIK signature verifies against aik.json
//   - consecutive heads are append-only consistent, proven by generating
//     and verifying an RFC 6962 consistency proof between them — this is
//     what makes cross-restart tampering (rewriting history between runs)
//     detectable
//   - every event covered by the newest head carries a valid inclusion
//     proof against that head
//
// Structural problems are accumulated in the Report rather than aborting,
// so one flipped byte yields a diagnosis, not just an error.
func VerifyChain(dir string) (*Report, error) {
	r := &Report{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	r.Segments = len(segs)
	var (
		events  []Event
		leaves  []merkle.Hash
		scratch []byte
	)
	for i, seg := range segs {
		se, _, _, err := readSegment(dir, seg, i == len(segs)-1)
		if err != nil {
			// Corruption inside a segment: report and stop loading — leaf
			// hashes past this point would be guesses.
			r.problemf("%v", err)
			break
		}
		for _, e := range se {
			if e.Seq != uint64(len(events)) {
				r.problemf("segment %d: seq %d where %d expected (gap or reorder)", seg, e.Seq, len(events))
			}
			scratch = e.Canonical(scratch[:0])
			leaves = append(leaves, merkle.LeafHash(scratch))
			events = append(events, e)
		}
	}
	r.Events = len(events)

	aiks, err := ReadAIKs(dir)
	if err != nil {
		r.problemf("%v", err)
	}

	heads, err := readHeads(dir)
	if err != nil {
		return nil, err
	}
	r.Heads = len(heads)
	var prev *TreeHead
	for i := range heads {
		h := &heads[i]
		if len(h.Sig) != 0 {
			r.SignedHeads++
		}
		if h.Size > uint64(len(leaves)) {
			r.problemf("head %d covers %d events but only %d are persisted", i, h.Size, len(leaves))
			continue
		}
		if got := merkle.Root(leaves[:h.Size]); got != h.Root {
			r.problemf("head %d (size %d): root %s does not match recomputation %s",
				i, h.Size, h.Root, got)
		}
		if err := verifyHeadAnyKey(h, aiks); err != nil {
			r.problemf("%v", err)
		}
		if prev != nil {
			if h.Size < prev.Size {
				r.problemf("head %d shrank: %d after %d (log rollback)", i, h.Size, prev.Size)
			} else {
				proof := merkle.ConsistencyProof(leaves[:h.Size], int(prev.Size))
				if !merkle.VerifyConsistency(int(prev.Size), int(h.Size), prev.Root, h.Root, proof) {
					r.problemf("heads %d->%d (sizes %d->%d) fail consistency: history rewritten",
						i-1, i, prev.Size, h.Size)
				}
			}
		}
		prev = h
	}

	if prev == nil {
		if len(events) > 0 {
			r.Uncovered = len(events)
			r.problemf("%d events but no tree head to prove them against", len(events))
		}
		return r, nil
	}
	r.Uncovered = len(events) - int(prev.Size)
	covered := leaves[:prev.Size]
	for i := range covered {
		proof := merkle.InclusionProof(covered, i)
		if !merkle.VerifyInclusion(covered[i], i, int(prev.Size), proof, prev.Root) {
			r.problemf("event %d fails inclusion against the newest head", i)
		}
	}
	return r, nil
}

// EventKey renders the stable identity of an event for cross-log
// correlation (tcbaudit cross-checks attestd's platform and verifier logs
// by trace).
func EventKey(e *Event) string {
	return fmt.Sprintf("%s/%s/%s", e.Node, e.Type, e.Trace)
}

// hexLeaf is a debugging helper: the leaf hash of an event's canonical
// form, as hex.
func hexLeaf(e *Event) string {
	h := merkle.LeafHash(e.Canonical(nil))
	return hex.EncodeToString(h[:])
}
