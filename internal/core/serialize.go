package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"ringlwe/internal/ntt"
)

// Serialization packs each coefficient into CoeffBits bits (13 for P1, 14
// for P2), little-endian within the bit stream, matching the paper's
// observation that coefficients fit in half words. A one-byte header tags
// the parameter set so mismatches fail loudly instead of decrypting noise.
//
// Every polynomial serializes as rows: one row of N coefficients at
// CoeffBits for a single-modulus set, and for an RNS set its K residue
// rows in channel order, row i at channel i's width. N is a multiple of 8,
// so every row packs to whole bytes. One word-level packer/unpacker pair
// moves each row through a 64-bit accumulator, a whole word per memory
// access, and the unpacker checks c < q (qᵢ for row i) as it goes: the
// one-shot, streaming and RNS paths all share it, and no parser makes a
// separate range pass.

// LegacyTag returns the one-byte parameter tag the legacy tagged format
// (Bytes/Parse*) opens with: 1 for P1, 2 for P2, 0 for custom sets. The
// self-describing wire format frames the same bodies with a richer header;
// higher layers use this tag to recognise legacy blobs.
func LegacyTag(p *Params) byte {
	t, _ := paramTag(p)
	return t
}

// paramTag returns the stable wire identifier of a parameter set.
func paramTag(p *Params) (byte, error) {
	switch {
	case p.N == 256 && p.Q == 7681:
		return 1, nil
	case p.N == 512 && p.Q == 12289:
		return 2, nil
	case p.N == 256 && p.Q == 12289:
		return 3, nil
	case p.IsRNS() && p.N == 1024 && isB1Moduli(p.Basis.Moduli):
		return 4, nil
	default:
		// Custom sets serialize with tag 0; the caller must know the params.
		return 0, nil
	}
}

// isB1Moduli reports whether moduli is exactly the B1 residue basis, so
// the structural tag match above stays as strict as the N/Q matches of the
// single-modulus sets.
func isB1Moduli(moduli []uint32) bool {
	if len(moduli) != len(B1Moduli) {
		return false
	}
	for i, q := range B1Moduli {
		if moduli[i] != q {
			return false
		}
	}
	return true
}

// appendPolys appends the packed concatenation of polys to dst: one
// allocation at most, none when dst has the capacity — the zero-copy seam
// the public encoding.BinaryAppender implementations ride.
func appendPolys(dst []byte, p *Params, polys ...ntt.Poly) []byte {
	pb := p.PolyBytes()
	dst = slices.Grow(dst, len(polys)*pb)
	for _, poly := range polys {
		off := len(dst)
		dst = dst[:off+pb]
		packPolyP(dst[off:], p, poly)
	}
	return dst
}

// rowWidth is the packed bit width of row i: CoeffBits for single-modulus
// sets, channel i's width for RNS sets.
func (p *Params) rowWidth(i int) uint {
	if p.Basis != nil {
		return p.Basis.Mods[i].BitLen()
	}
	return p.Mod.BitLen()
}

// rowQ is the modulus row i's coefficients must stay below.
func (p *Params) rowQ(i int) uint32 {
	if p.Basis != nil {
		return p.Basis.Moduli[i]
	}
	return p.Q
}

// rowBytes is the packed size of row i.
func (p *Params) rowBytes(i int) int { return (p.N*int(p.rowWidth(i)) + 7) / 8 }

// packPolyP packs one polynomial row by row into dst[:PolyBytes].
func packPolyP(dst []byte, p *Params, poly ntt.Poly) {
	off := 0
	for i := 0; i < p.K(); i++ {
		rb := p.rowBytes(i)
		packPoly(dst[off:off+rb], poly[i*p.N:(i+1)*p.N], p.rowWidth(i))
		off += rb
	}
}

// unpackPolyP unpacks one polynomial row by row from src[:PolyBytes],
// failing at the first coefficient outside its row's range.
func unpackPolyP(dst ntt.Poly, p *Params, src []byte) error {
	off := 0
	for i := 0; i < p.K(); i++ {
		rb := p.rowBytes(i)
		row := dst[i*p.N : (i+1)*p.N]
		if j := unpackPolyInto(row, src[off:off+rb], p.rowWidth(i), p.rowQ(i)); j >= 0 {
			return rangeError(p, i, j, row[j])
		}
		off += rb
	}
	return nil
}

// rangeError describes a non-canonical coefficient: index j of row i.
// Oversized residues would smuggle non-canonical values through the CRT,
// so RNS rows are held to their channel moduli exactly as single-modulus
// bodies are held to q.
func rangeError(p *Params, i, j int, c uint32) error {
	if p.IsRNS() {
		return fmt.Errorf("residue row %d coefficient %d out of range: %d ≥ q%d", i, j, c, i+1)
	}
	return fmt.Errorf("coefficient %d out of range: %d ≥ q", j, c)
}

// packPoly packs the low width bits (1 ≤ width ≤ 32) of each coefficient
// of src, little-endian within the bit stream, overwriting every byte of
// dst[:⌈len(src)·width/8⌉]. Coefficients collect in a 64-bit accumulator
// that is stored a whole word at a time.
func packPoly(dst []byte, src ntt.Poly, width uint) {
	mask := uint64(1)<<width - 1
	var acc uint64
	var bits uint // valid low bits in acc, < 64 between coefficients
	k := 0
	for _, c := range src {
		v := uint64(c) & mask
		acc |= v << bits
		bits += width
		if bits >= 64 {
			binary.LittleEndian.PutUint64(dst[k:], acc)
			k += 8
			bits -= 64
			acc = v >> (width - bits) // the bits of v that did not fit
		}
	}
	for ; bits > 0; bits -= min(bits, 8) {
		dst[k] = byte(acc)
		acc >>= 8
		k++
	}
}

// unpackPolyInto reverses packPoly into dst, loading src a 64-bit word at
// a time, and checks each coefficient against q as it lands. It returns
// the index of the first coefficient ≥ q, at which it stops (dst past that
// index is unspecified), or -1 when every coefficient is in range.
func unpackPolyInto(dst ntt.Poly, src []byte, width uint, q uint32) int {
	mask := uint64(1)<<width - 1
	var acc uint64
	var bits uint // unread low bits in acc
	k := 0
	for i := range dst {
		var c uint64
		if bits >= width {
			c = acc & mask
			acc >>= width
			bits -= width
		} else {
			var w uint64
			if k+8 <= len(src) {
				w = binary.LittleEndian.Uint64(src[k:])
			} else { // the last, partial word of src
				var tail [8]byte
				copy(tail[:], src[k:])
				w = binary.LittleEndian.Uint64(tail[:])
			}
			k += 8
			c = (acc | w<<bits) & mask
			acc = w >> (width - bits) // the bits of w past this coefficient
			bits += 64 - width
		}
		dst[i] = uint32(c)
		if uint32(c) >= q {
			return i
		}
	}
	return -1
}

// AppendTo appends the packed body ã ‖ p̃ — no parameter tag — to dst and
// returns the extended slice. The body is what the self-describing wire
// format frames with its own header; the legacy tagged format is the same
// body behind a one-byte tag.
func (pk *PublicKey) AppendTo(dst []byte) []byte {
	return appendPolys(dst, pk.Params, pk.A, pk.P)
}

// Bytes serializes the public key as tag ‖ pack(ã) ‖ pack(p̃).
func (pk *PublicKey) Bytes() []byte {
	tag, _ := paramTag(pk.Params)
	out := make([]byte, 1, 1+2*pk.Params.PolyBytes())
	out[0] = tag
	return pk.AppendTo(out)
}

// ParsePublicKeyBody reverses AppendTo: it parses a bare packed body of
// exactly 2·PolyBytes under the given parameters.
func ParsePublicKeyBody(p *Params, body []byte) (*PublicKey, error) {
	pb := p.PolyBytes()
	if len(body) != 2*pb {
		return nil, fmt.Errorf("core: public key: body is %d bytes, want %d", len(body), 2*pb)
	}
	pk := &PublicKey{Params: p, A: p.newPoly(), P: p.newPoly()}
	if err := unpackPolyP(pk.A, p, body[:pb]); err != nil {
		return nil, fmt.Errorf("core: public key: %w", err)
	}
	if err := unpackPolyP(pk.P, p, body[pb:]); err != nil {
		return nil, fmt.Errorf("core: public key: %w", err)
	}
	return pk, nil
}

// ParsePublicKey reverses PublicKey.Bytes under the given parameters.
func ParsePublicKey(p *Params, data []byte) (*PublicKey, error) {
	if err := checkBlob(p, data, 2); err != nil {
		return nil, fmt.Errorf("core: public key: %w", err)
	}
	return ParsePublicKeyBody(p, data[1:])
}

// AppendTo appends the packed body pack(r̃2) — no parameter tag — to dst.
func (sk *PrivateKey) AppendTo(dst []byte) []byte {
	return appendPolys(dst, sk.Params, sk.R2)
}

// Bytes serializes the private key as tag ‖ pack(r̃2).
func (sk *PrivateKey) Bytes() []byte {
	tag, _ := paramTag(sk.Params)
	out := make([]byte, 1, 1+sk.Params.PolyBytes())
	out[0] = tag
	return sk.AppendTo(out)
}

// ParsePrivateKeyBody reverses AppendTo: it parses a bare packed body of
// exactly PolyBytes under the given parameters.
func ParsePrivateKeyBody(p *Params, body []byte) (*PrivateKey, error) {
	if len(body) != p.PolyBytes() {
		return nil, fmt.Errorf("core: private key: body is %d bytes, want %d", len(body), p.PolyBytes())
	}
	sk := &PrivateKey{Params: p, R2: p.newPoly()}
	if err := unpackPolyP(sk.R2, p, body); err != nil {
		return nil, fmt.Errorf("core: private key: %w", err)
	}
	return sk, nil
}

// ParsePrivateKey reverses PrivateKey.Bytes under the given parameters.
func ParsePrivateKey(p *Params, data []byte) (*PrivateKey, error) {
	if err := checkBlob(p, data, 1); err != nil {
		return nil, fmt.Errorf("core: private key: %w", err)
	}
	return ParsePrivateKeyBody(p, data[1:])
}

// AppendTo appends the packed body c̃1 ‖ c̃2 — no parameter tag — to dst.
func (ct *Ciphertext) AppendTo(dst []byte) []byte {
	return appendPolys(dst, ct.Params, ct.C1, ct.C2)
}

// Bytes serializes the ciphertext as tag ‖ pack(c̃1) ‖ pack(c̃2).
func (ct *Ciphertext) Bytes() []byte {
	out := make([]byte, 1+2*ct.Params.PolyBytes())
	ct.MarshalInto(out) // freshly sized buffer: cannot fail
	return out
}

// MarshalInto serializes the ciphertext into a caller-owned buffer of
// exactly 1+2·PolyBytes bytes (the KEM workspace path reuses one blob
// allocation per encapsulation this way).
func (ct *Ciphertext) MarshalInto(dst []byte) error {
	p := ct.Params
	if len(dst) != 1+2*p.PolyBytes() {
		return fmt.Errorf("core: ciphertext buffer is %d bytes, want %d", len(dst), 1+2*p.PolyBytes())
	}
	tag, _ := paramTag(p)
	dst[0] = tag
	packPolyP(dst[1:1+p.PolyBytes()], p, ct.C1)
	packPolyP(dst[1+p.PolyBytes():], p, ct.C2)
	return nil
}

// ParseCiphertext reverses Ciphertext.Bytes under the given parameters.
func ParseCiphertext(p *Params, data []byte) (*Ciphertext, error) {
	ct := NewCiphertext(p)
	if err := ParseCiphertextInto(ct, data); err != nil {
		return nil, err
	}
	return ct, nil
}

// ParseCiphertextInto deserializes data into a preallocated ciphertext
// (see NewCiphertext), allocating nothing. On error the ciphertext's
// contents are unspecified.
func ParseCiphertextInto(ct *Ciphertext, data []byte) error {
	if err := checkBlob(ct.Params, data, 2); err != nil {
		return fmt.Errorf("core: ciphertext: %w", err)
	}
	return ParseCiphertextBodyInto(ct, data[1:])
}

// ParseCiphertextBodyInto reverses AppendTo into a preallocated ciphertext:
// it parses a bare packed body of exactly 2·PolyBytes, allocating nothing.
// On error the ciphertext's contents are unspecified.
func ParseCiphertextBodyInto(ct *Ciphertext, body []byte) error {
	p := ct.Params
	if len(ct.C1) != p.polyLen() || len(ct.C2) != p.polyLen() {
		return fmt.Errorf("core: ciphertext: buffers hold %d/%d coefficients, want %d (use NewCiphertext)",
			len(ct.C1), len(ct.C2), p.polyLen())
	}
	pb := p.PolyBytes()
	if len(body) != 2*pb {
		return fmt.Errorf("core: ciphertext: body is %d bytes, want %d", len(body), 2*pb)
	}
	if err := unpackPolyP(ct.C1, p, body[:pb]); err != nil {
		return fmt.Errorf("core: ciphertext: %w", err)
	}
	if err := unpackPolyP(ct.C2, p, body[pb:]); err != nil {
		return fmt.Errorf("core: ciphertext: %w", err)
	}
	// The ciphertext wire body carries no noise accounting; a parsed blob is
	// assumed fresh. Aggregates travel with an explicit addend count and set
	// this themselves.
	ct.Addends = 1
	return nil
}

// Streaming body I/O. Every row packs eight coefficients into width whole
// bytes, so any multiple of eight coefficients starts on a byte boundary;
// the writers and readers below exploit that to move bodies row by row
// through a small chunk buffer instead of materializing the whole blob —
// the seam behind the public io.WriterTo/io.ReaderFrom implementations.

// streamChunkCoeffs is the number of coefficients packed per streaming
// chunk. It is a multiple of 8 so every chunk begins byte-aligned, and
// small (8·width bytes per 64 coefficients: 104 B for P1, 112 B for P2,
// 256 B worst case).
const streamChunkCoeffs = 64

// streamChunkBufSize bounds the per-chunk byte count: 64 coefficients at
// the 32-bit ceiling on a row width.
const streamChunkBufSize = streamChunkCoeffs / 8 * 32

// streamChunkPool recycles chunk buffers: a stack array would escape
// through the io.Writer/io.Reader interface call, so pooling is what keeps
// the streaming paths at zero steady-state allocations.
var streamChunkPool = sync.Pool{New: func() any { return new([streamChunkBufSize]byte) }}

// writePolysTo writes the packed concatenation of polys to w row by row,
// chunk by chunk, returning the byte count written. It allocates no slice
// proportional to the body.
func writePolysTo(w io.Writer, p *Params, polys ...ntt.Poly) (int64, error) {
	buf := streamChunkPool.Get().(*[streamChunkBufSize]byte)
	defer streamChunkPool.Put(buf)
	var written int64
	for _, poly := range polys {
		for i := 0; i < p.K(); i++ {
			width := p.rowWidth(i)
			row := poly[i*p.N : (i+1)*p.N]
			for off := 0; off < len(row); off += streamChunkCoeffs {
				end := min(off+streamChunkCoeffs, len(row))
				chunk := buf[:(end-off)/8*int(width)]
				packPoly(chunk, row[off:end], width)
				n, err := w.Write(chunk)
				written += int64(n)
				if err != nil {
					return written, err
				}
			}
		}
	}
	return written, nil
}

// readPolysFrom fills polys from the packed stream r row by row, chunk by
// chunk, returning the byte count consumed. Each chunk is range-checked as
// it is unpacked, so the read stops at the chunk holding the first
// out-of-range coefficient, with the one-shot parsers' error.
func readPolysFrom(r io.Reader, p *Params, polys ...ntt.Poly) (int64, error) {
	buf := streamChunkPool.Get().(*[streamChunkBufSize]byte)
	defer streamChunkPool.Put(buf)
	var read int64
	for _, poly := range polys {
		for i := 0; i < p.K(); i++ {
			width, q := p.rowWidth(i), p.rowQ(i)
			row := poly[i*p.N : (i+1)*p.N]
			for off := 0; off < len(row); off += streamChunkCoeffs {
				end := min(off+streamChunkCoeffs, len(row))
				chunk := buf[:(end-off)/8*int(width)]
				n, err := io.ReadFull(r, chunk)
				read += int64(n)
				if err != nil {
					return read, err
				}
				if j := unpackPolyInto(row[off:end], chunk, width, q); j >= 0 {
					return read, rangeError(p, i, off+j, row[off+j])
				}
			}
		}
	}
	return read, nil
}

// WriteBodyTo streams the packed body ã ‖ p̃ to w without materializing it.
func (pk *PublicKey) WriteBodyTo(w io.Writer) (int64, error) {
	return writePolysTo(w, pk.Params, pk.A, pk.P)
}

// ReadPublicKeyBodyFrom streams a bare packed body of exactly 2·PolyBytes
// from r into a fresh public key, returning the byte count consumed.
func ReadPublicKeyBodyFrom(p *Params, r io.Reader) (*PublicKey, int64, error) {
	pk := &PublicKey{Params: p, A: p.newPoly(), P: p.newPoly()}
	n, err := readPolysFrom(r, p, pk.A, pk.P)
	if err != nil {
		return nil, n, fmt.Errorf("core: public key: %w", err)
	}
	return pk, n, nil
}

// WriteBodyTo streams the packed body pack(r̃2) to w.
func (sk *PrivateKey) WriteBodyTo(w io.Writer) (int64, error) {
	return writePolysTo(w, sk.Params, sk.R2)
}

// ReadPrivateKeyBodyFrom streams a bare packed body of exactly PolyBytes
// from r into a fresh private key.
func ReadPrivateKeyBodyFrom(p *Params, r io.Reader) (*PrivateKey, int64, error) {
	sk := &PrivateKey{Params: p, R2: p.newPoly()}
	n, err := readPolysFrom(r, p, sk.R2)
	if err != nil {
		return nil, n, fmt.Errorf("core: private key: %w", err)
	}
	return sk, n, nil
}

// WriteBodyTo streams the packed body c̃1 ‖ c̃2 to w.
func (ct *Ciphertext) WriteBodyTo(w io.Writer) (int64, error) {
	return writePolysTo(w, ct.Params, ct.C1, ct.C2)
}

// ReadCiphertextBodyFrom streams a bare packed body of exactly 2·PolyBytes
// from r into a preallocated ciphertext (see NewCiphertext), allocating
// nothing. On error the ciphertext's contents are unspecified.
func ReadCiphertextBodyFrom(ct *Ciphertext, r io.Reader) (int64, error) {
	p := ct.Params
	if len(ct.C1) != p.polyLen() || len(ct.C2) != p.polyLen() {
		return 0, fmt.Errorf("core: ciphertext: buffers hold %d/%d coefficients, want %d (use NewCiphertext)",
			len(ct.C1), len(ct.C2), p.polyLen())
	}
	n, err := readPolysFrom(r, p, ct.C1, ct.C2)
	if err != nil {
		return n, fmt.Errorf("core: ciphertext: %w", err)
	}
	ct.Addends = 1 // streamed bodies are fresh, like ParseCiphertextBodyInto
	return n, nil
}

func checkBlob(p *Params, data []byte, polys int) error {
	want := 1 + polys*p.PolyBytes()
	if len(data) != want {
		return fmt.Errorf("blob is %d bytes, want %d", len(data), want)
	}
	tag, _ := paramTag(p)
	if data[0] != tag {
		return fmt.Errorf("parameter tag %d, want %d (%s)", data[0], tag, p.Name)
	}
	return nil
}
