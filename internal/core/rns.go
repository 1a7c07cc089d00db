package core

import (
	"fmt"
	"math/big"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rns"
)

// RNS-backed scheme paths. A multi-modulus parameter set stores every
// polynomial flat — k stride-contiguous residue rows of N coefficients in
// the same ntt.Poly fields the single-modulus sets use — and routes ring
// arithmetic through the workspace's channel-parallel ntt.Runner instead
// of the single Engine. Message encoding adds ⌊q/2⌋'s residue per channel;
// decoding CRT-reconstructs each coefficient in a 128-bit accumulator and
// applies the threshold test there. Every branch point in the shared code
// dispatches on Params.IsRNS(), so the single-modulus paths are untouched
// byte for byte.

// IsRNS reports whether the parameter set runs over a multi-modulus RNS
// basis rather than a single word-sized q.
func (p *Params) IsRNS() bool { return p.Basis != nil }

// K returns the number of residue channels (1 for single-modulus sets).
func (p *Params) K() int {
	if p.Basis != nil {
		return p.Basis.K
	}
	return 1
}

// polyLen is the coefficient count of one stored polynomial: N for
// single-modulus sets, K·N residue rows for RNS sets.
func (p *Params) polyLen() int { return p.K() * p.N }

// newPoly allocates a zero polynomial with this set's storage length.
func (p *Params) newPoly() ntt.Poly { return make(ntt.Poly, p.polyLen()) }

// NewRNSParams validates and precomputes a multi-modulus parameter set
// over the given residue primes (each ≡ 1 mod 2n, composite ≤ rns.MaxQBits
// bits). The Gaussian machinery is identical to NewParams — the error
// distribution depends only on σ, not on the modulus — while Mod/Tables/Q
// stay nil/zero: RNS sets answer modulus questions through Basis.
func NewRNSParams(name string, n int, moduli []uint32, sNum, sDen int64, lambda int) (*Params, error) {
	basis, err := rns.NewBasis(n, moduli)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if n%8 != 0 {
		return nil, fmt.Errorf("core: ring dimension %d must be a multiple of 8 for byte packing", n)
	}
	p, err := newGaussParams(name, n, sNum, sDen, lambda)
	if err != nil {
		return nil, err
	}
	p.Basis = basis
	qf, _ := new(big.Float).SetInt(basis.QBig).Float64()
	p.qFloat = qf
	p.maxAddends = computeMaxAddends(p)
	return p, nil
}

// rnsUniformPolyInto fills dst with a uniform element of R_q: each channel
// row is independently uniform mod qᵢ (rejection from BitLen-bit strings),
// which by CRT is exactly uniform over the composite ring.
func (w *Workspace) rnsUniformPolyInto(dst ntt.Poly) {
	p := w.scheme.Params
	b := p.Basis
	for i := 0; i < b.K; i++ {
		qi := b.Moduli[i]
		bits := b.Mods[i].BitLen()
		row := dst[i*p.N : (i+1)*p.N]
		for j := range row {
			for {
				v := w.uniform.Bits(bits)
				if v < qi {
					row[j] = v
					break
				}
			}
		}
	}
}

// rnsErrorPolyInto fills dst with one X_σ error polynomial in RNS form:
// the sampler draws the signed values once (reduced mod q₁ into row 0,
// negatives as q₁−|e|), then each remaining row re-reduces the same signed
// value mod its own channel prime. Error magnitudes are bounded by the
// sampler's tail cut (≪ q₁/2), so the sign test v > q₁/2 is exact.
func (w *Workspace) rnsErrorPolyInto(dst ntt.Poly) {
	p := w.scheme.Params
	b := p.Basis
	row0 := dst[:p.N]
	q1 := b.Moduli[0]
	w.sampler.SamplePolyInto(row0, q1)
	half := q1 / 2
	for i := 1; i < b.K; i++ {
		qi := b.Moduli[i]
		row := dst[i*p.N : (i+1)*p.N]
		for j, v := range row0 {
			if v > half {
				row[j] = qi - (q1 - v)
			} else {
				row[j] = v
			}
		}
	}
}

// rnsAddEncoded adds ⌊q/2⌋·bit to every coefficient, channel by channel
// through the precomputed residues of ⌊q/2⌋ — the RNS form of addEncoded.
func rnsAddEncoded(p *Params, dst ntt.Poly, msg []byte) {
	b := p.Basis
	for i := 0; i < b.K; i++ {
		half := b.HalfQRes(i)
		mod := b.Mods[i]
		row := dst[i*p.N : (i+1)*p.N]
		for j := 0; j < p.N; j++ {
			if msg[j/8]>>(j%8)&1 == 1 {
				row[j] = mod.Add(row[j], half)
			}
		}
	}
}

// rnsAddEncodedConstantTime is rnsAddEncoded with the bit applied through
// a mask and the per-channel reduction by borrow extraction — no message
// bit steers a branch, matching AddEncodedConstantTime.
func rnsAddEncodedConstantTime(p *Params, dst ntt.Poly, msg []byte) {
	b := p.Basis
	for i := 0; i < b.K; i++ {
		half := uint32(b.HalfQRes(i))
		qi := uint64(b.Moduli[i])
		row := dst[i*p.N : (i+1)*p.N]
		for j := 0; j < p.N; j++ {
			bit := uint32(msg[j/8]>>(j%8)) & 1
			s := uint64(row[j]) + uint64(half&-bit)
			ge := 1 - (s-qi)>>63
			row[j] = uint32(s - qi*ge)
		}
	}
}

// rnsDecodeInto CRT-reconstructs each coefficient and applies the
// threshold test 4c ∈ (q, 3q) in the 128-bit accumulator. The borrow-based
// DecodeCoeff is branchless, so this one decoder serves both the default
// and the constant-time profiles.
func rnsDecodeInto(dst []byte, p *Params, m ntt.Poly) {
	b := p.Basis
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < p.N; j++ {
		bit := b.DecodeCoeff(b.ReconstructCoeff(m, j))
		dst[j/8] |= bit << (j % 8)
	}
}

// rnsEncode is Encode over the residue channels (allocating; the hot path
// fuses encoding into e3 via rnsAddEncoded instead).
func rnsEncode(p *Params, msg []byte) (ntt.Poly, error) {
	if len(msg) != p.MessageBytes() {
		return nil, errMessageSize(p, len(msg))
	}
	out := p.newPoly()
	rnsAddEncoded(p, out, msg)
	return out, nil
}

// rnsGenerateKeysShared is GenerateKeysShared over the residue channels:
// identical algebra, with the per-channel transforms and products
// scheduled by the workspace's Runner.
func (w *Workspace) rnsGenerateKeysShared(a ntt.Poly) (*PublicKey, *PrivateKey, error) {
	p := w.scheme.Params
	if len(a) != p.polyLen() {
		return nil, nil, fmt.Errorf("core: ã has %d coefficients, want %d", len(a), p.polyLen())
	}
	r := w.runner

	r1 := w.e1 // scratch: consumed by the p̃ computation below
	w.rnsErrorPolyInto(r1)
	r2 := p.newPoly() // retained as the private key
	w.rnsErrorPolyInto(r2)
	r.ForwardAll(r1)
	r.ForwardAll(r2)

	pk := &PublicKey{Params: p, A: append(ntt.Poly(nil), a...), P: p.newPoly()}
	r.MulAll(pk.P, pk.A, r2)
	r.SubAll(pk.P, r1, pk.P) // p̃ = r̃1 − ã∘r̃2

	sk := &PrivateKey{Params: p, R2: r2}
	w.flushStats()
	return pk, sk, nil
}

// rnsEncryptInto is EncryptInto over the residue channels: three RNS error
// samplings, the fused three-way forward schedule, and per-channel
// products/sums. Steady state it allocates nothing.
func (w *Workspace) rnsEncryptInto(ct *Ciphertext, pk *PublicKey, msg []byte) error {
	p := w.scheme.Params
	r := w.runner

	w.rnsErrorPolyInto(w.e1)
	w.rnsErrorPolyInto(w.e2)
	w.rnsErrorPolyInto(w.e3)
	if w.scheme.ctDecode {
		rnsAddEncodedConstantTime(p, w.e3, msg)
	} else {
		rnsAddEncoded(p, w.e3, msg)
	}
	r.ForwardThreeAll(w.e1, w.e2, w.e3)

	r.MulAll(ct.C1, pk.A, w.e1)
	r.AddAll(ct.C1, ct.C1, w.e2) // c̃1 = ã∘ẽ1 + ẽ2
	r.MulAll(ct.C2, pk.P, w.e1)
	r.AddAll(ct.C2, ct.C2, w.e3) // c̃2 = p̃∘ẽ1 + NTT(e3+m̄)
	ct.Addends = 1
	w.flushStats()
	return nil
}

// rnsDecryptInto is DecryptInto over the residue channels, with the CRT
// threshold decode replacing the word-sized one.
func (w *Workspace) rnsDecryptInto(dst []byte, sk *PrivateKey, ct *Ciphertext) error {
	r := w.runner
	m := w.e1
	r.MulAll(m, ct.C1, sk.R2)
	r.AddAll(m, m, ct.C2)
	r.InverseAll(m)
	rnsDecodeInto(dst, w.scheme.Params, m)
	return nil
}

// rnsDecryptToPoly is the standalone (engine-less) decrypt path over the
// basis tables, mirroring PrivateKey.DecryptToPoly.
func rnsDecryptToPoly(sk *PrivateKey, ct *Ciphertext) (ntt.Poly, error) {
	p := sk.Params
	b := p.Basis
	m := p.newPoly()
	for i := 0; i < b.K; i++ {
		t := b.Tables[i]
		row := m[i*p.N : (i+1)*p.N]
		t.PointwiseMul(row, ct.C1[i*p.N:(i+1)*p.N], sk.R2[i*p.N:(i+1)*p.N])
		t.Add(row, row, ct.C2[i*p.N:(i+1)*p.N])
		t.Inverse(row)
	}
	return m, nil
}

// rnsEvalAddInto is the RNS branch of EvalAddInto: per-channel sums
// through the immutable engines (no Runner — Scheme-level eval ops must
// stay safe for concurrent use, and row addition is memory-bound anyway).
func (s *Scheme) rnsEvalAddInto(dst, a, b *Ciphertext) error {
	n := s.Params.N
	for i, eng := range s.engs {
		eng.Add(dst.C1[i*n:(i+1)*n], a.C1[i*n:(i+1)*n], b.C1[i*n:(i+1)*n])
		eng.Add(dst.C2[i*n:(i+1)*n], a.C2[i*n:(i+1)*n], b.C2[i*n:(i+1)*n])
	}
	return nil
}

func (s *Scheme) rnsEvalSubInto(dst, a, b *Ciphertext) error {
	n := s.Params.N
	for i, eng := range s.engs {
		eng.Sub(dst.C1[i*n:(i+1)*n], a.C1[i*n:(i+1)*n], b.C1[i*n:(i+1)*n])
		eng.Sub(dst.C2[i*n:(i+1)*n], a.C2[i*n:(i+1)*n], b.C2[i*n:(i+1)*n])
	}
	return nil
}

// rnsEvalScalarMulInto scales per channel by k mod qᵢ. The scalar is a
// word-sized public constant, far below q/2 for any RNS set, so its lifted
// magnitude is k itself and the noise charge is a.Addends·k².
func (s *Scheme) rnsEvalScalarMulInto(dst, a *Ciphertext, k uint32) error {
	maxU := uint64(s.Params.maxAddends)
	units := uint64(0)
	if c2 := uint64(k) * uint64(k); c2 != 0 {
		if a.Addends > maxU/c2 {
			return ErrNoiseBudget
		}
		units = a.Addends * c2
	}
	if units > maxU {
		return ErrNoiseBudget
	}
	n := s.Params.N
	for i, eng := range s.engs {
		kr := k % s.Params.Basis.Moduli[i]
		eng.ScalarMul(dst.C1[i*n:(i+1)*n], a.C1[i*n:(i+1)*n], kr)
		eng.ScalarMul(dst.C2[i*n:(i+1)*n], a.C2[i*n:(i+1)*n], kr)
	}
	dst.Addends = units
	return nil
}
