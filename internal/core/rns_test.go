package core

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"ringlwe/internal/rng"
)

func testRNSScheme(t testing.TB) *Scheme {
	t.Helper()
	s, err := New(B1(), rng.NewXorshift128(7))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestB1Params pins the headline properties of the big-parameter set: ≥2
// residue channels, a ≥60-bit composite modulus, and an additive budget in
// the thousands.
func TestB1Params(t *testing.T) {
	p := B1()
	if !p.IsRNS() {
		t.Fatal("B1 is not RNS")
	}
	if p.K() < 2 {
		t.Fatalf("K = %d, want ≥ 2", p.K())
	}
	if p.Basis.QBits < 60 {
		t.Fatalf("QBits = %d, want ≥ 60", p.Basis.QBits)
	}
	if p.MaxAddends() < 1000 {
		t.Fatalf("MaxAddends = %d, want ≥ 1000", p.MaxAddends())
	}
	// Every channel admits the vector engine (4q ≤ 2³¹), so auto
	// resolution never downgrades a channel.
	for i, m := range p.Basis.Mods {
		if !m.VectorSafe() {
			t.Errorf("channel %d (q=%d) not vector-safe", i, p.Basis.Moduli[i])
		}
	}
	wantPoly := 0
	for i := range p.Basis.Moduli {
		wantPoly += (p.N*int(p.Basis.Mods[i].BitLen()) + 7) / 8
	}
	if p.PolyBytes() != wantPoly {
		t.Errorf("PolyBytes = %d, want %d", p.PolyBytes(), wantPoly)
	}
}

// TestB1EndToEnd drives keygen → encrypt → decrypt over B1, then checks
// that a decrypted ciphertext's pre-decode polynomial CRT-reconstructs to
// m̄ + small noise against a math/big oracle: each coefficient must lie
// within the q/4 decode band of its encoded value.
func TestB1EndToEnd(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	for i := range msg {
		msg[i] = byte(i*37 + 11)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("decrypt mismatch")
	}

	// Oracle check on the pre-decode polynomial: reconstruct each
	// coefficient with math/big and verify |c − bit·⌊q/2⌋| < q/4 (mod q).
	m, err := sk.DecryptToPoly(ct)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Basis
	q := b.QBig
	quarter := new(big.Int).Rsh(q, 2)
	half := new(big.Int).Rsh(q, 1)
	for j := 0; j < p.N; j++ {
		c := b.CoeffBig(m, j)
		bit := msg[j/8] >> (j % 8) & 1
		want := new(big.Int)
		if bit == 1 {
			want.Set(half)
		}
		diff := new(big.Int).Sub(c, want)
		diff.Mod(diff, q)
		// fold to the symmetric representative
		if diff.Cmp(half) > 0 {
			diff.Sub(q, diff)
		}
		if diff.Cmp(quarter) >= 0 {
			t.Fatalf("coeff %d: noise %v ≥ q/4", j, diff)
		}
	}
}

// TestB1Aggregate folds hundreds of fresh encryptions into one aggregate —
// far past A1's 26-addend budget — and checks the sum decodes to the XOR
// of the messages.
func TestB1Aggregate(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const addends = 300
	want := make([]byte, p.MessageBytes())
	acc := NewCiphertext(p)
	acc.Zero()
	msg := make([]byte, p.MessageBytes())
	for i := 0; i < addends; i++ {
		for j := range msg {
			msg[j] = byte(i*31 + j*7 + 3)
			want[j] ^= msg[j]
		}
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EvalAddInto(acc, acc, ct); err != nil {
			t.Fatalf("addend %d: %v", i, err)
		}
	}
	if acc.Addends != addends {
		t.Fatalf("Addends = %d, want %d", acc.Addends, addends)
	}
	got, err := sk.Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("aggregate decrypt mismatch")
	}
}

// TestB1EvalScalarMul checks homomorphic scalar multiplication by an odd
// scalar (odd k preserve the bit encoding) against plaintext expectation.
func TestB1EvalScalarMul(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EvalScalarMulInto(ct, ct, 5); err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("odd scalar did not preserve message")
	}
	if ct.Addends != 25 {
		t.Fatalf("Addends = %d, want 25", ct.Addends)
	}
}

// TestB1Serialization round-trips keys and ciphertexts through the legacy
// tagged format, the bare bodies, and the streaming I/O, checking
// bit-identical re-serialization and per-row range rejection.
func TestB1Serialization(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	msg[0] = 0xA5
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}

	pkBlob := pk.Bytes()
	pk2, err := ParsePublicKey(p, pkBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pk2.Bytes(), pkBlob) {
		t.Fatal("public key re-serialization differs")
	}
	skBlob := sk.Bytes()
	sk2, err := ParsePrivateKey(p, skBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sk2.Bytes(), skBlob) {
		t.Fatal("private key re-serialization differs")
	}
	ctBlob := ct.Bytes()
	ct2, err := ParseCiphertext(p, ctBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct2.Bytes(), ctBlob) {
		t.Fatal("ciphertext re-serialization differs")
	}
	got, err := sk2.Decrypt(ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("parsed keys/ciphertext do not decrypt")
	}

	// Streaming round trip.
	var buf bytes.Buffer
	if _, err := pk.WriteBodyTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 2*p.PolyBytes() {
		t.Fatalf("streamed %d bytes, want %d", buf.Len(), 2*p.PolyBytes())
	}
	pk3, _, err := ReadPublicKeyBodyFrom(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pk3.Bytes(), pkBlob) {
		t.Fatal("streamed public key differs")
	}

	// Per-row anti-smuggling: an out-of-range residue in the LAST channel
	// row must be rejected (its width gives headroom above q₃).
	bad := append([]byte(nil), ctBlob...)
	// Set the final coefficient's bits to all-ones within its row width.
	tail := bad[len(bad)-4:]
	for i := range tail {
		tail[i] = 0xFF
	}
	if _, err := ParseCiphertext(p, bad); err == nil {
		t.Fatal("oversized residue accepted")
	}
}

// TestB1ZeroAlloc pins the RNS hot paths at zero steady-state allocations:
// workspace encrypt, decrypt and homomorphic addition over k residue rows
// must reuse the flat k·n buffers exactly like the single-modulus paths.
func TestB1ZeroAlloc(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	for i := range msg {
		msg[i] = byte(3 * i)
	}
	ct := NewCiphertext(p)
	acc := NewCiphertext(p)
	acc.Zero()
	out := make([]byte, p.MessageBytes())

	if n := testing.AllocsPerRun(50, func() {
		if err := ws.EncryptInto(ct, pk, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS EncryptInto allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := ws.DecryptInto(out, sk, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS DecryptInto allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		acc.Zero()
		if err := s.EvalAddInto(acc, acc, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS EvalAddInto allocates %v times per op, want 0", n)
	}

	// The codec: marshal, parse and append into a buffer with capacity.
	blob := make([]byte, 1+2*p.PolyBytes())
	if n := testing.AllocsPerRun(50, func() {
		if err := ct.MarshalInto(blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS MarshalInto allocates %v times per op, want 0", n)
	}
	parsed := NewCiphertext(p)
	if n := testing.AllocsPerRun(50, func() {
		if err := ParseCiphertextInto(parsed, blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS ParseCiphertextInto allocates %v times per op, want 0", n)
	}
	body := make([]byte, 0, 2*p.PolyBytes())
	if n := testing.AllocsPerRun(50, func() {
		body = ct.AppendTo(body[:0])
	}); n != 0 {
		t.Fatalf("RNS AppendTo allocates %v times per op, want 0", n)
	}
}

// TestB1ConcurrentSharedScheme shares one RNS scheme across 8 goroutines —
// each with a pooled workspace — exercising the shared engine state,
// the channel runner and the eval ops under the race detector.
func TestB1ConcurrentSharedScheme(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			errs <- func() error {
				w := s.Acquire()
				defer s.Release(w)
				msg := make([]byte, p.MessageBytes())
				for i := range msg {
					msg[i] = byte(g*41 + i)
				}
				ct := NewCiphertext(p)
				acc := NewCiphertext(p)
				acc.Zero()
				out := make([]byte, p.MessageBytes())
				for iter := 0; iter < 10; iter++ {
					if err := w.EncryptInto(ct, pk, msg); err != nil {
						return err
					}
					if err := w.DecryptInto(out, sk, ct); err != nil {
						return err
					}
					if !bytes.Equal(out, msg) {
						return errDecryptMismatch
					}
					if err := s.EvalAddInto(acc, acc, ct); err != nil {
						return err
					}
				}
				if err := w.DecryptInto(out, sk, acc); err != nil {
					return err
				}
				// 10 identical addends: even count, XOR cancels to zero.
				for _, b := range out {
					if b != 0 {
						return errDecryptMismatch
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errDecryptMismatch = errors.New("concurrent decrypt mismatch")

// TestB1ConstantTimeProfile runs the branchless codec path end to end.
func TestB1ConstantTimeProfile(t *testing.T) {
	s, err := NewWithOptions(B1(), rng.NewXorshift128(9), Options{ConstantTimeDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, s.Params.MessageBytes())
	for i := range msg {
		msg[i] = byte(255 - i)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Acquire()
	defer s.Release(w)
	got := make([]byte, s.Params.MessageBytes())
	if err := w.DecryptInto(got, sk, ct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("constant-time profile decrypt mismatch")
	}
}
