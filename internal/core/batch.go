package core

import "ringlwe/internal/par"

// Batch operations: a bounded worker pool drives the zero-allocation
// workspace paths over many items at once. Workers pull item indices from a
// shared atomic counter (work stealing, no per-item channel traffic) and
// each holds one pooled workspace for its whole run, so an N-item batch
// costs the same workspace setup as max(workers) single calls. The pool
// itself is par.ParallelFor, shared with the transform layer.

// parallel runs fn over indices [0, n), one pooled workspace per worker.
func (s *Scheme) parallel(n, workers int, fn func(w *Workspace, i int) error) error {
	return par.ParallelFor(n, workers, func() (func(i int) error, func()) {
		w := s.Acquire()
		return func(i int) error { return fn(w, i) }, func() { s.Release(w) }
	})
}

// EncryptBatch encrypts every message to pk concurrently. workers ≤ 0 uses
// GOMAXPROCS. Ciphertext i corresponds to msgs[i].
func (s *Scheme) EncryptBatch(pk *PublicKey, msgs [][]byte, workers int) ([]*Ciphertext, error) {
	cts := make([]*Ciphertext, len(msgs))
	err := s.parallel(len(msgs), workers, func(w *Workspace, i int) error {
		ct := NewCiphertext(s.Params)
		if err := w.EncryptInto(ct, pk, msgs[i]); err != nil {
			return err
		}
		cts[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cts, nil
}

// DecryptBatch decrypts every ciphertext with sk concurrently. workers ≤ 0
// uses GOMAXPROCS. Message i corresponds to cts[i].
func (s *Scheme) DecryptBatch(sk *PrivateKey, cts []*Ciphertext, workers int) ([][]byte, error) {
	msgs := make([][]byte, len(cts))
	err := s.parallel(len(cts), workers, func(w *Workspace, i int) error {
		buf := make([]byte, s.Params.MessageBytes())
		if err := w.DecryptInto(buf, sk, cts[i]); err != nil {
			return err
		}
		msgs[i] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}
