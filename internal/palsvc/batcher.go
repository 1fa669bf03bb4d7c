package palsvc

import (
	"fmt"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/core"
	"minimaltcb/internal/obs"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

// The pipelined quote batcher decouples quote generation from the per-job
// machine-lock round trip. Without it every job pays one TPM_Quote — one
// AIK RSA signature — under the machine mutex (the §5.4.5 arbitration
// stand-in). With it, each machine runs one batcher goroutine: workers
// whose PALs finished execution hand their parked registers to the
// batcher, which collects up to Batch.MaxSize of them (lingering at most
// Batch.MaxWait for stragglers) and attests the whole set with a single
// TPM_SEPCR_QuoteBatch — one signature over the Merkle root of every
// job's composite. Each worker gets back its leaf's inclusion proof and
// verifies it lock-free, in parallel, exactly like the one-shot path.
//
// The batcher also owns the machine's quote session: the first flush
// opens one (one extra AIK signature and one verifier-side RSA verify),
// and every later batch rides the HMAC channel — zero RSA on the
// verifier in steady state. A failed session open degrades to stateless
// batch verification and is retried on the next flush.

// BatchPolicy configures the per-machine quote batcher.
type BatchPolicy struct {
	// MaxSize bounds how many jobs one batch quote covers. Values <= 1
	// disable batching: every job quotes individually, byte-identical to
	// the pre-batching pipeline.
	MaxSize int
	// MaxWait bounds how long the batcher lingers for stragglers after
	// the first job arrives; the timer never delays a full batch. Zero
	// defaults to 200µs.
	MaxWait time.Duration
}

func (p BatchPolicy) enabled() bool { return p.MaxSize > 1 }

// DefaultBatchPolicy is what palservd enables with -quote-batch.
func DefaultBatchPolicy() BatchPolicy {
	return BatchPolicy{MaxSize: 8, MaxWait: 200 * time.Microsecond}
}

// quoteItem is one job's hand-off from its worker to the machine's
// batcher: the register parked in Quote state, and a channel the batcher
// answers on once the batch is signed.
type quoteItem struct {
	t    *task
	secb *sksm.SECB
	res  *JobResult
	done chan quoteOutcome // buffered; the batcher never blocks here
}

// quoteOutcome is the batcher's answer: the signed batch plus this job's
// leaf position and nonce, or the batch-level error. sess is the
// verification session the batch is bound to (nil = verify stateless);
// it rides the channel so workers never race the batcher on machine
// session state.
type quoteOutcome struct {
	q     *tpm.BatchQuote
	idx   int
	nonce []byte
	sess  *attest.Session
	err   error
}

// quoteBatched is the worker side of the batched QUOTE stage: hand the
// parked register to the machine's batcher, wait for the signed batch,
// then verify this job's inclusion proof lock-free. The caller has
// dropped m.mu; the register is in Quote state and still counted by
// admission until the batcher frees it.
func (s *Service) quoteBatched(m *machine, t *task, p *core.PAL, res *JobResult, secb *sksm.SECB) error {
	it := &quoteItem{t: t, secb: secb, res: res, done: make(chan quoteOutcome, 1)}
	m.batchCh <- it
	out := <-it.done
	if out.err != nil {
		return out.err
	}
	return s.verifyBatched(m, t, p, res, out)
}

// batcher is the per-machine collection loop. One goroutine per machine:
// the first arrival starts the MaxWait linger timer, a full batch
// flushes immediately, and channel close (service shutdown) flushes
// whatever was collected before exiting.
func (s *Service) batcher(m *machine) {
	defer s.batchWg.Done()
	maxSize := s.cfg.Batch.MaxSize
	for {
		first, ok := <-m.batchCh
		if !ok {
			return
		}
		items := []*quoteItem{first}
		timer := time.NewTimer(s.cfg.Batch.MaxWait)
	collect:
		for len(items) < maxSize {
			select {
			case it, ok := <-m.batchCh:
				if !ok {
					break collect
				}
				items = append(items, it)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		s.flushBatch(m, items)
	}
}

// flushBatch signs one batch under a single machine-lock acquisition:
// lazily open the quote session, one TPM_SEPCR_QuoteBatch over every
// collected register, release the SECBs, then fan the entries back to
// the waiting workers. On a failed batch every register is freed
// unquoted (the TPM's injection point sits before the signature, so
// failed batches leave registers parked in Quote) and every job gets
// the same retryable error — with its verifier nonce unconsumed, the
// supervisor retry can reuse it.
func (s *Service) flushBatch(m *machine, items []*quoteItem) {
	sys := m.sys
	n := len(items)
	nonces := make([][]byte, n)
	secbs := make([]*sksm.SECB, n)
	for i, it := range items {
		nonces[i] = s.nextNonce()
		secbs[i] = it.secb
	}
	batchNonce := s.nextNonce()

	m.mu.Lock()
	if m.session == nil {
		s.openQuoteSession(m)
	}
	spans := make([]*obs.Span, n)
	for i, it := range items {
		spans[i] = s.tracer.StartSpan(it.t.root.Context(), "quote", "pipeline")
		if spans[i] != nil {
			spans[i].Virt(sys.Machine.Clock.Now())
			spans[i].Attr("batch", fmt.Sprint(n))
		}
	}
	prevCtx := m.scope.Swap(spans[0].Context())
	sw := sim.StartStopwatch(sys.Machine.Clock)
	q, qerr := sys.SKSM.QuoteBatchAfterExit(secbs, nonces, batchNonce, m.sessID)
	elapsed := sw.Elapsed()
	if qerr != nil {
		for _, sb := range secbs {
			_ = sys.Machine.TPM().FreeSePCR(sb.SePCRHandle)
		}
	}
	var relErr error
	for _, sb := range secbs {
		if e := sys.SKSM.Release(sb); relErr == nil {
			relErr = e
		}
	}
	m.scope.Swap(prevCtx)
	for _, sp := range spans {
		if sp == nil {
			continue
		}
		if qerr != nil {
			sp.Attr("error", qerr.Error())
		}
		sp.EndVirt(sys.Machine.Clock.Now())
	}
	s.releaseSlots(m, n) // every register is Free again

	// The amortized accounting is the point: each job is charged its
	// even share of the one batch quote, and the histogram records what
	// a job actually paid — which is what the loadgen p99 measures.
	per := elapsed / time.Duration(n)
	for _, it := range items {
		it.res.QuoteGen = per
		s.metrics.observeQuote(per)
	}
	s.metrics.noteBatch(n, qerr == nil)

	if qerr != nil {
		s.noteMachineFault(m)
		err := fmt.Errorf("palsvc: batched quoting: %w", qerr)
		for _, it := range items {
			it.done <- quoteOutcome{err: err}
		}
		return
	}
	if relErr != nil {
		s.noteMachineFault(m)
		err := fmt.Errorf("palsvc: releasing SECB: %w", relErr)
		for _, it := range items {
			it.done <- quoteOutcome{err: err}
		}
		return
	}
	s.noteMachineOK(m)
	for i, it := range items {
		it.done <- quoteOutcome{q: q, idx: i, nonce: nonces[i], sess: m.session}
	}
}

// openQuoteSession establishes the machine's quote session: the TPM
// mints the HMAC key and signs the grant, the verifier checks it once.
// Called under m.mu from the batcher goroutine only. Failure (an
// injected TPM fault on the session-open command) leaves the machine
// sessionless — batches verify stateless, and the next flush retries.
func (s *Service) openQuoteSession(m *machine) {
	nonce := s.nextNonce()
	grant, err := m.sys.Machine.TPM().OpenQuoteSession(nonce)
	if err != nil {
		return
	}
	sess, err := m.sys.Verifier.NewSession(m.sys.Cert, grant, nonce)
	if err != nil {
		return
	}
	m.session = sess
	m.sessID = grant.ID
}

// verifyBatched is the batched VERIFY stage: check this job's inclusion
// proof against the signed root (over the session's HMAC channel when
// one is open), replay the event log, and consume the per-job nonce.
// Pure public-key/hash work — no machine lock, so it overlaps other
// jobs' execution exactly like the one-shot verify.
func (s *Service) verifyBatched(m *machine, t *task, p *core.PAL, res *JobResult, out quoteOutcome) error {
	sys := m.sys
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		return fmt.Errorf("%w: before verify", ErrDeadlineExceeded)
	}
	vStart := time.Now()
	verifySp := s.tracer.StartSpan(t.root.Context(), "verify", "pipeline")
	sys.Verifier.Approve(t.job.Name, p.Measurement())
	log := attest.Log{{PCR: -1, Description: t.job.Name, Measurement: p.Measurement()}}
	var name string
	var verr error
	if out.sess != nil && out.q.SessionID != 0 {
		name, verr = out.sess.VerifyBatchedQuote(out.q, out.idx, log, out.nonce)
	} else {
		name, verr = sys.Verifier.VerifyBatchedQuote(sys.Cert, out.q, out.idx, log, out.nonce)
	}
	res.Verify = time.Since(vStart)
	s.metrics.observeVerify(res.Verify)
	if verr != nil {
		verifySp.Attr("error", verr.Error()).End()
		return fmt.Errorf("palsvc: quote verification: %w", verr)
	}
	verifySp.Attr("verified_as", name).Attr("batch", fmt.Sprint(out.q.Count)).End()
	res.VerifiedAs = name
	res.BatchSize = out.q.Count
	return nil
}
