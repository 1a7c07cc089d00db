package ringlwe

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ringlwe/internal/core"
)

// Self-describing wire format (API v2). Every serialized object opens with
// a fixed six-byte header:
//
//	offset 0–1  magic "RL"
//	offset 2    format version (currently 2)
//	offset 3    object kind (public key, private key, ciphertext,
//	            encapsulated key, aggregate ciphertext)
//	offset 4–5  registered parameter-set ID, big-endian (1 = P1, 2 = P2,
//	            3 = A1, 4 = B1; Custom sets claim an ID via RegisterParams)
//	offset 6–   the packed-coefficient body of the legacy format
//
// so a receiver recovers the parameter set from the blob itself
// (ParseAnyPublicKey, ParseAnyCiphertext, …) instead of having to know it
// out of band. The legacy single-tag-byte format behind Bytes/Parse*
// remains supported unchanged — it is the same body behind a one-byte tag
// — and the known-answer vectors continue to pin it bit for bit.
//
// PublicKey, PrivateKey, Ciphertext and EncapsulatedKey implement
// encoding.BinaryMarshaler, encoding.BinaryAppender and
// encoding.BinaryUnmarshaler over this format; AppendBinary reuses the
// caller's buffer through the zero-copy core.AppendTo paths (at most one
// allocation, none when capacity suffices).

const (
	wireMagic0  = 'R'
	wireMagic1  = 'L'
	wireVersion = 2

	// wireHeaderSize is the fixed header length prefixed to every body.
	wireHeaderSize = 6

	wireKindPublicKey       = 1
	wireKindPrivateKey      = 2
	wireKindCiphertext      = 3
	wireKindEncapsulatedKey = 4
	wireKindAggregate       = 5
)

// Exported wire-kind constants mirror the header's kind byte so protocol
// layers can dispatch on WireKind without parsing the whole blob.
const (
	KindPublicKey       byte = wireKindPublicKey
	KindPrivateKey      byte = wireKindPrivateKey
	KindCiphertext      byte = wireKindCiphertext
	KindEncapsulatedKey byte = wireKindEncapsulatedKey
	KindAggregate       byte = wireKindAggregate
)

// WireKind peeks at a self-describing blob's kind byte. ok is false when the
// blob is too short or does not open with this package's magic and version;
// it says nothing about whether the body parses.
func WireKind(data []byte) (kind byte, ok bool) {
	if len(data) < wireHeaderSize || data[0] != wireMagic0 || data[1] != wireMagic1 || data[2] != wireVersion {
		return 0, false
	}
	return data[3], true
}

// ErrUnknownParams reports a self-describing blob whose header carries a
// parameter-set ID no call to RegisterParams (and neither built-in set)
// has claimed. Test with errors.Is.
var ErrUnknownParams = errors.New("ringlwe: unregistered parameter-set ID")

// wireIDP1, wireIDP2, wireIDA1 and wireIDB1 are the pre-registered IDs of
// the built-in sets.
const (
	wireIDP1 uint16 = 1
	wireIDP2 uint16 = 2
	wireIDA1 uint16 = 3
	wireIDB1 uint16 = 4
)

// paramsRegistry maps registered wire IDs to parameter sets. The standard
// sets register lazily on first use so importing the package does not pay
// their table precomputation.
var paramsRegistry struct {
	once sync.Once
	mu   sync.RWMutex
	byID map[uint16]*Params
}

func registryInit() {
	paramsRegistry.once.Do(func() {
		paramsRegistry.byID = map[uint16]*Params{
			wireIDP1: P1(),
			wireIDP2: P2(),
			wireIDA1: A1(),
			wireIDB1: B1(),
		}
	})
}

// RegisterParams claims wire ID id for the parameter set p, making blobs
// of that set self-describing: after registration, MarshalBinary embeds id
// and the ParseAny functions recover p from it. IDs 1–4 are the built-in
// P1, P2, A1 and B1; Custom sets must pick a nonzero ID of their own.
// Registering the same (id, params) pair again is a no-op, also when p is
// a structurally identical rebuild of the registered set (same name, N,
// modulus, σ and λ); claiming an ID already bound to a different set, or
// registering one set under two IDs, is an error.
func RegisterParams(id uint16, p *Params) error {
	if id == 0 {
		return errors.New("ringlwe: wire ID 0 is reserved for unregistered sets")
	}
	registryInit()
	paramsRegistry.mu.Lock()
	defer paramsRegistry.mu.Unlock()
	if prev, ok := paramsRegistry.byID[id]; ok {
		if sameParams(prev, p) {
			return nil
		}
		return fmt.Errorf("ringlwe: wire ID %d is already registered to %s", id, prev.Name())
	}
	for otherID, other := range paramsRegistry.byID {
		if sameParams(other, p) {
			return fmt.Errorf("ringlwe: parameter set %s is already registered as wire ID %d", p.Name(), otherID)
		}
	}
	paramsRegistry.byID[id] = p
	return nil
}

// sameParams reports whether a and b describe the same parameter set: one
// instance, or two built from identical name, N, modulus (or residue
// basis), σ and λ.
func sameParams(a, b *Params) bool {
	x, y := a.inner, b.inner
	if x == y {
		return true
	}
	return x.Name == y.Name && x.N == y.N && x.Q == y.Q &&
		x.SNum == y.SNum && x.SDen == y.SDen && x.Lambda == y.Lambda &&
		(x.Basis == nil) == (y.Basis == nil) &&
		(x.Basis == nil || slices.Equal(x.Basis.Moduli, y.Basis.Moduli))
}

// WireID returns the parameter set's registered wire ID (1 for P1, 2 for
// P2, the RegisterParams ID for registered Custom sets) or 0 when the set
// is not registered and therefore cannot be serialized self-describingly.
func (p *Params) WireID() uint16 {
	registryInit()
	paramsRegistry.mu.RLock()
	defer paramsRegistry.mu.RUnlock()
	for id, reg := range paramsRegistry.byID {
		if sameParams(reg, p) {
			return id
		}
	}
	return 0
}

// paramsByWireID resolves a header ID against the registry.
func paramsByWireID(id uint16) (*Params, error) {
	registryInit()
	paramsRegistry.mu.RLock()
	defer paramsRegistry.mu.RUnlock()
	if p, ok := paramsRegistry.byID[id]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownParams, id)
}

// wireID returns the params' registered ID or an actionable error.
func wireID(p *Params) (uint16, error) {
	if id := p.WireID(); id != 0 {
		return id, nil
	}
	return 0, fmt.Errorf("ringlwe: parameter set %s has no wire ID; register one with RegisterParams before marshaling", p.Name())
}

// appendWireHeader appends the six-byte header to dst.
func appendWireHeader(dst []byte, kind byte, id uint16) []byte {
	dst = append(dst, wireMagic0, wireMagic1, wireVersion, kind)
	return binary.BigEndian.AppendUint16(dst, id)
}

// kindName labels a wire kind for error text.
func kindName(kind byte) string {
	switch kind {
	case wireKindPublicKey:
		return "public key"
	case wireKindPrivateKey:
		return "private key"
	case wireKindCiphertext:
		return "ciphertext"
	case wireKindEncapsulatedKey:
		return "encapsulated key"
	case wireKindAggregate:
		return "aggregate ciphertext"
	}
	return "object"
}

// parseWireHeader validates the header, resolves the embedded parameter
// set and returns it with the body. wantKind pins the object type so a
// ciphertext blob cannot be parsed as a public key.
func parseWireHeader(data []byte, wantKind byte) (*Params, []byte, error) {
	what := kindName(wantKind)
	if len(data) < wireHeaderSize {
		return nil, nil, fmt.Errorf("ringlwe: %s blob is %d bytes, shorter than the %d-byte header", what, len(data), wireHeaderSize)
	}
	p, err := parseWireHeaderBytes(data[:wireHeaderSize], wantKind)
	if err != nil {
		return nil, nil, err
	}
	return p, data[wireHeaderSize:], nil
}

// parseWireHeaderBytes validates exactly the six header bytes and resolves
// the embedded parameter set — the streaming ReadFrom seam, which reads
// the header before any body byte exists in memory.
func parseWireHeaderBytes(hdr []byte, wantKind byte) (*Params, error) {
	what := kindName(wantKind)
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return nil, fmt.Errorf("ringlwe: %s blob lacks the \"RL\" magic (legacy format? use the Parse* functions with explicit Params)", what)
	}
	if hdr[2] != wireVersion {
		return nil, fmt.Errorf("ringlwe: %s blob has wire version %d, this library speaks %d", what, hdr[2], wireVersion)
	}
	if hdr[3] != wantKind {
		return nil, fmt.Errorf("ringlwe: blob is a %s, want a %s", kindName(hdr[3]), what)
	}
	p, err := paramsByWireID(binary.BigEndian.Uint16(hdr[4:6]))
	if err != nil {
		return nil, fmt.Errorf("ringlwe: %s: %w", what, err)
	}
	return p, nil
}

// Compile-time assertions: the four wire objects satisfy the standard
// encoding contracts.
var (
	_ encoding.BinaryMarshaler   = (*PublicKey)(nil)
	_ encoding.BinaryAppender    = (*PublicKey)(nil)
	_ encoding.BinaryUnmarshaler = (*PublicKey)(nil)
	_ encoding.BinaryMarshaler   = (*PrivateKey)(nil)
	_ encoding.BinaryAppender    = (*PrivateKey)(nil)
	_ encoding.BinaryUnmarshaler = (*PrivateKey)(nil)
	_ encoding.BinaryMarshaler   = (*Ciphertext)(nil)
	_ encoding.BinaryAppender    = (*Ciphertext)(nil)
	_ encoding.BinaryUnmarshaler = (*Ciphertext)(nil)
	_ encoding.BinaryMarshaler   = EncapsulatedKey(nil)
	_ encoding.BinaryAppender    = EncapsulatedKey(nil)
	_ encoding.BinaryUnmarshaler = (*EncapsulatedKey)(nil)
)

// AppendBinary appends the self-describing encoding of the public key to b
// (encoding.BinaryAppender): header then packed ã ‖ p̃, with at most one
// allocation.
func (pk *PublicKey) AppendBinary(b []byte) ([]byte, error) {
	id, err := wireID(pk.params)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, wireHeaderSize+2*pk.params.inner.PolyBytes())
	return pk.inner.AppendTo(appendWireHeader(b, wireKindPublicKey, id)), nil
}

// MarshalBinary returns the self-describing encoding of the public key
// (encoding.BinaryMarshaler). The parameter set must be registered; P1 and
// P2 always are.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	return pk.AppendBinary(nil)
}

// UnmarshalBinary decodes a self-describing public key blob, recovering
// the parameter set from the header (encoding.BinaryUnmarshaler).
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	p, body, err := parseWireHeader(data, wireKindPublicKey)
	if err != nil {
		return err
	}
	inner, err := core.ParsePublicKeyBody(p.inner, body)
	if err != nil {
		return fmt.Errorf("ringlwe: %w", err)
	}
	pk.params, pk.inner = p, inner
	return nil
}

// ParseAnyPublicKey decodes a self-describing public key blob without a
// params argument: the parameter set rides in the header.
func ParseAnyPublicKey(data []byte) (*PublicKey, error) {
	pk := new(PublicKey)
	if err := pk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return pk, nil
}

// AppendBinary appends the self-describing encoding of the private key to
// b (encoding.BinaryAppender).
func (sk *PrivateKey) AppendBinary(b []byte) ([]byte, error) {
	id, err := wireID(sk.params)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, wireHeaderSize+sk.params.inner.PolyBytes())
	return sk.inner.AppendTo(appendWireHeader(b, wireKindPrivateKey, id)), nil
}

// MarshalBinary returns the self-describing encoding of the private key
// (encoding.BinaryMarshaler).
func (sk *PrivateKey) MarshalBinary() ([]byte, error) {
	return sk.AppendBinary(nil)
}

// UnmarshalBinary decodes a self-describing private key blob, recovering
// the parameter set from the header (encoding.BinaryUnmarshaler).
func (sk *PrivateKey) UnmarshalBinary(data []byte) error {
	p, body, err := parseWireHeader(data, wireKindPrivateKey)
	if err != nil {
		return err
	}
	inner, err := core.ParsePrivateKeyBody(p.inner, body)
	if err != nil {
		return fmt.Errorf("ringlwe: %w", err)
	}
	sk.params, sk.inner = p, inner
	return nil
}

// ParseAnyPrivateKey decodes a self-describing private key blob without a
// params argument.
func ParseAnyPrivateKey(data []byte) (*PrivateKey, error) {
	sk := new(PrivateKey)
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return sk, nil
}

// AppendBinary appends the self-describing encoding of the ciphertext to b
// (encoding.BinaryAppender).
func (ct *Ciphertext) AppendBinary(b []byte) ([]byte, error) {
	id, err := wireID(ct.params)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, wireHeaderSize+2*ct.params.inner.PolyBytes())
	return ct.inner.AppendTo(appendWireHeader(b, wireKindCiphertext, id)), nil
}

// MarshalBinary returns the self-describing encoding of the ciphertext
// (encoding.BinaryMarshaler).
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	return ct.AppendBinary(nil)
}

// UnmarshalBinary decodes a self-describing ciphertext blob, recovering
// the parameter set from the header (encoding.BinaryUnmarshaler).
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	p, body, err := parseWireHeader(data, wireKindCiphertext)
	if err != nil {
		return err
	}
	inner := core.NewCiphertext(p.inner)
	if err := core.ParseCiphertextBodyInto(inner, body); err != nil {
		return fmt.Errorf("ringlwe: %w", err)
	}
	ct.params, ct.inner = p, inner
	return nil
}

// ParseAnyCiphertext decodes a self-describing ciphertext blob without a
// params argument: the parameter set rides in the header.
func ParseAnyCiphertext(data []byte) (*Ciphertext, error) {
	ct := new(Ciphertext)
	if err := ct.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return ct, nil
}

// AppendBinary appends the self-describing encoding of the encapsulation
// blob to b (encoding.BinaryAppender). An EncapsulatedKey is a bare byte
// slice with no Params pointer, so the set is recovered from the blob
// itself (its length and the embedded legacy ciphertext tag) against the
// registry; it must match exactly one registered set. P1 and P2 are
// always unambiguous; two registered Custom sets of identical
// encapsulation size cannot be told apart (both embed legacy tag 0) and
// are refused — serialize the Ciphertext and tag separately in that case.
func (ek EncapsulatedKey) AppendBinary(b []byte) ([]byte, error) {
	id, err := ek.inferWireID()
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, wireHeaderSize+len(ek))
	return append(appendWireHeader(b, wireKindEncapsulatedKey, id), ek...), nil
}

// MarshalBinary returns the self-describing encoding of the encapsulation
// blob (encoding.BinaryMarshaler). See AppendBinary for the Custom-set
// ambiguity caveat.
func (ek EncapsulatedKey) MarshalBinary() ([]byte, error) {
	return ek.AppendBinary(nil)
}

// inferWireID infers the parameter set of a raw encapsulation blob from
// the registry: the registered set whose EncapsulationSize matches the
// blob length and whose legacy ciphertext tag matches the embedded one.
func (ek EncapsulatedKey) inferWireID() (uint16, error) {
	if len(ek) == 0 {
		return 0, errors.New("ringlwe: empty encapsulation blob")
	}
	registryInit()
	paramsRegistry.mu.RLock()
	defer paramsRegistry.mu.RUnlock()
	var found uint16
	for id, p := range paramsRegistry.byID {
		if p.EncapsulationSize() == len(ek) && core.LegacyTag(p.inner) == ek[0] {
			if found != 0 {
				return 0, errors.New("ringlwe: encapsulation blob matches multiple registered parameter sets")
			}
			found = id
		}
	}
	if found == 0 {
		return 0, errors.New("ringlwe: encapsulation blob matches no registered parameter set")
	}
	return found, nil
}

// parseEncapsulatedBody validates a self-describing encapsulation blob
// and returns the parameter set with the body aliasing data (no copy; the
// callers below decide ownership).
func parseEncapsulatedBody(data []byte) (*Params, []byte, error) {
	p, body, err := parseWireHeader(data, wireKindEncapsulatedKey)
	if err != nil {
		return nil, nil, err
	}
	if len(body) != p.EncapsulationSize() {
		return nil, nil, fmt.Errorf("ringlwe: encapsulation body is %d bytes, want %d for %s", len(body), p.EncapsulationSize(), p.Name())
	}
	// The body embeds a legacy-format ciphertext; its tag must agree with
	// the header's parameter set, so Decapsulate's own parse cannot
	// disagree with the header (and MarshalBinary re-infers the same set).
	if body[0] != core.LegacyTag(p.inner) {
		return nil, nil, fmt.Errorf("ringlwe: encapsulation body carries ciphertext tag %d, want %d for %s", body[0], core.LegacyTag(p.inner), p.Name())
	}
	return p, body, nil
}

// UnmarshalBinary decodes a self-describing encapsulation blob, leaving
// the raw Decapsulate-ready bytes in ek (encoding.BinaryUnmarshaler).
func (ek *EncapsulatedKey) UnmarshalBinary(data []byte) error {
	_, body, err := parseEncapsulatedBody(data)
	if err != nil {
		return err
	}
	*ek = append((*ek)[:0], body...)
	return nil
}

// ParseAnyEncapsulatedKey decodes a self-describing encapsulation blob,
// returning the parameter set recovered from the header alongside the raw
// Decapsulate-ready bytes.
func ParseAnyEncapsulatedKey(data []byte) (*Params, EncapsulatedKey, error) {
	p, body, err := parseEncapsulatedBody(data)
	if err != nil {
		return nil, nil, err
	}
	return p, EncapsulatedKey(append([]byte(nil), body...)), nil
}

// Legacy tagged format — the original fixed-size wire encodings. These
// remain the format the known-answer vectors pin; the self-describing
// format above frames the same bodies with a richer header. New code
// should prefer MarshalBinary/AppendBinary and the ParseAny functions.

// Bytes serializes the public key in the legacy tagged format (thin
// wrapper over the core serializer; see MarshalBinary for the
// self-describing format).
func (pk *PublicKey) Bytes() []byte { return pk.inner.Bytes() }

// Bytes serializes the private key in the legacy tagged format.
func (sk *PrivateKey) Bytes() []byte { return sk.inner.Bytes() }

// Bytes serializes the ciphertext in the legacy tagged format.
func (ct *Ciphertext) Bytes() []byte { return ct.inner.Bytes() }

// ParsePublicKey deserializes a legacy-format public key under p (thin
// wrapper; see ParseAnyPublicKey for the self-describing format).
func ParsePublicKey(p *Params, data []byte) (*PublicKey, error) {
	pk, err := core.ParsePublicKey(p.inner, data)
	if err != nil {
		return nil, fmt.Errorf("ringlwe: %w", err)
	}
	return &PublicKey{params: p, inner: pk}, nil
}

// ParsePrivateKey deserializes a legacy-format private key under p.
func ParsePrivateKey(p *Params, data []byte) (*PrivateKey, error) {
	sk, err := core.ParsePrivateKey(p.inner, data)
	if err != nil {
		return nil, fmt.Errorf("ringlwe: %w", err)
	}
	return &PrivateKey{params: p, inner: sk}, nil
}

// ParseCiphertext deserializes a legacy-format ciphertext under p.
func ParseCiphertext(p *Params, data []byte) (*Ciphertext, error) {
	ct, err := core.ParseCiphertext(p.inner, data)
	if err != nil {
		return nil, fmt.Errorf("ringlwe: %w", err)
	}
	return &Ciphertext{params: p, inner: ct}, nil
}
