package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

// The bit-serial codec below moves one bit per loop iteration. It is the
// reference the word-level packPoly/unpackPolyInto are held to: same bytes
// out, same coefficients back, and the same first out-of-range index as a
// separate scalar range pass.

func packPolyRef(dst []byte, p ntt.Poly, width uint) {
	bitPos := 0
	for _, c := range p {
		for b := uint(0); b < width; b++ {
			if c>>b&1 == 1 {
				dst[bitPos/8] |= 1 << (bitPos % 8)
			}
			bitPos++
		}
	}
}

func unpackPolyRef(dst ntt.Poly, src []byte, width uint) {
	bitPos := 0
	for i := range dst {
		var c uint32
		for b := uint(0); b < width; b++ {
			c |= uint32(src[bitPos/8]>>(bitPos%8)&1) << b
			bitPos++
		}
		dst[i] = c
	}
}

// firstOutOfRange is the scalar range check: the index of the first
// coefficient ≥ q, or -1.
func firstOutOfRange(poly ntt.Poly, q uint32) int {
	for i, c := range poly {
		if c >= q {
			return i
		}
	}
	return -1
}

// checkRangeRef is the scalar range pass the parsers made before the check
// was fused into the unpacker, with its error text.
func checkRangeRef(p *Params, poly ntt.Poly) error {
	for i := 0; i < p.K(); i++ {
		row := poly[i*p.N : (i+1)*p.N]
		if j := firstOutOfRange(row, p.rowQ(i)); j >= 0 {
			if p.IsRNS() {
				return fmt.Errorf("residue row %d coefficient %d out of range: %d ≥ q%d", i, j, row[j], i+1)
			}
			return fmt.Errorf("coefficient %d out of range: %d ≥ q", j, row[j])
		}
	}
	return nil
}

// codecPoly draws n coefficients of up to width bits from seed; with wide
// set, the high bits above width are random too, so packers must mask.
func codecPoly(seed uint64, n int, width uint, wide bool) ntt.Poly {
	src := rng.NewXorshift128(seed)
	out := make(ntt.Poly, n)
	mask := uint32(1<<width - 1)
	for i := range out {
		c := src.Uint32()
		if !wide {
			c &= mask
		}
		out[i] = c
	}
	return out
}

// checkCodecAgainstRef packs poly at width with both codecs, then unpacks
// the bytes under modulus q, and fails on any disagreement.
func checkCodecAgainstRef(t *testing.T, poly ntt.Poly, width uint, q uint32) {
	t.Helper()
	nb := (len(poly)*int(width) + 7) / 8
	want := make([]byte, nb)
	packPolyRef(want, poly, width)
	got := make([]byte, nb)
	for i := range got {
		got[i] = 0xA5 // the packer must overwrite every byte
	}
	packPoly(got, poly, width)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("width %d n %d: packed byte %d = %#02x, want %#02x", width, len(poly), i, got[i], want[i])
		}
	}

	ref := make(ntt.Poly, len(poly))
	unpackPolyRef(ref, want, width)
	bad := firstOutOfRange(ref, q)
	dst := make(ntt.Poly, len(poly))
	if j := unpackPolyInto(dst, want, width, q); j != bad {
		t.Fatalf("width %d n %d q %d: first bad index %d, want %d", width, len(poly), q, j, bad)
	}
	upto := len(ref)
	if bad >= 0 {
		upto = bad + 1
	}
	for i := 0; i < upto; i++ {
		if dst[i] != ref[i] {
			t.Fatalf("width %d n %d: coefficient %d = %d, want %d", width, len(poly), i, dst[i], ref[i])
		}
	}
}

// checkRowsAgainstRef runs one polynomial of an RNS set through
// packPolyP/unpackPolyP and the bit-serial codec row by row.
func checkRowsAgainstRef(t *testing.T, p *Params, poly ntt.Poly) {
	t.Helper()
	want := make([]byte, p.PolyBytes())
	off := 0
	for i := 0; i < p.K(); i++ {
		packPolyRef(want[off:], poly[i*p.N:(i+1)*p.N], p.rowWidth(i))
		off += p.rowBytes(i)
	}
	got := make([]byte, p.PolyBytes())
	packPolyP(got, p, poly)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: packed byte %d = %#02x, want %#02x", p.Name, i, got[i], want[i])
		}
	}

	ref := p.newPoly()
	off = 0
	for i := 0; i < p.K(); i++ {
		unpackPolyRef(ref[i*p.N:(i+1)*p.N], want[off:], p.rowWidth(i))
		off += p.rowBytes(i)
	}
	wantErr := checkRangeRef(p, ref)
	dst := p.newPoly()
	err := unpackPolyP(dst, p, want)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: unpack error %v, want %v", p.Name, err, wantErr)
	}
	if err == nil {
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("%s: coefficient %d = %d, want %d", p.Name, i, dst[i], ref[i])
			}
		}
	}
}

// FuzzPackRoundTrip is the differential fuzz of the word-level codec
// against the bit-serial reference: every width 1..32, lengths in
// multiples of 8, random moduli for the fused range check, and the B1
// per-row widths through packPolyP/unpackPolyP.
func FuzzPackRoundTrip(f *testing.F) {
	for w := uint8(1); w <= 32; w++ {
		f.Add(w, uint8(w%4), uint64(w), uint32(1)<<(w-1)+uint32(w), false)
		f.Add(w, uint8(32), uint64(1000+int(w)), ^uint32(0), true)
	}
	f.Add(uint8(13), uint8(32), uint64(7), uint32(7681), false)
	f.Add(uint8(14), uint8(64), uint64(8), uint32(12289), false)
	b1 := B1()
	f.Fuzz(func(t *testing.T, w, groups uint8, seed uint64, q uint32, wide bool) {
		width := uint(w%32) + 1
		n := 8 * int(groups%129) // up to 1024 coefficients
		poly := codecPoly(seed, n, width, wide)
		checkCodecAgainstRef(t, poly, width, q)

		// B1: every row at its channel's width, with residues drawn up to
		// the row width so some land at or above qᵢ.
		rows := b1.newPoly()
		src := rng.NewXorshift128(seed ^ uint64(q))
		for i := 0; i < b1.K(); i++ {
			row := rows[i*b1.N : (i+1)*b1.N]
			mask := uint32(1)<<b1.rowWidth(i) - 1
			for j := range row {
				row[j] = src.Uint32() % b1.rowQ(i)
			}
			// Plant at most one non-canonical residue, picked by the
			// fuzzer, so both acceptance and rejection are common.
			if wide && i == int(w)%b1.K() {
				j := int(q) % b1.N
				row[j] = b1.rowQ(i) + uint32(seed)%(mask-b1.rowQ(i)+1)
			}
		}
		checkRowsAgainstRef(t, b1, rows)
	})
}

// TestStreamRangeErrorMatchesParse plants one out-of-range coefficient
// deep in the last row of c̃2 — past the first streaming chunk — and
// checks that the streaming reader rejects it with the one-shot parser's
// error, index included.
func TestStreamRangeErrorMatchesParse(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), B1()} {
		ct := NewCiphertext(p)
		row := p.K() - 1
		j := p.N - 3
		ct.C2[row*p.N+j] = p.rowQ(row)
		body := ct.AppendTo(nil)

		want := ParseCiphertextBodyInto(NewCiphertext(p), body)
		if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("coefficient %d out of range", j)) {
			t.Fatalf("%s: parse error %v, want coefficient %d out of range", p.Name, want, j)
		}
		_, got := ReadCiphertextBodyFrom(NewCiphertext(p), bytes.NewReader(body))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: stream error %v, want %v", p.Name, got, want)
		}
	}
}

func BenchmarkPackPoly(b *testing.B) {
	for _, lane := range codecLanes() {
		b.Run(lane.name, func(b *testing.B) {
			poly := codecPoly(1, lane.n, lane.width, false)
			dst := make([]byte, lane.n*int(lane.width)/8)
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				packPoly(dst, poly, lane.width)
			}
		})
	}
}

func BenchmarkUnpackPoly(b *testing.B) {
	for _, lane := range codecLanes() {
		b.Run(lane.name, func(b *testing.B) {
			poly := codecPoly(1, lane.n, lane.width, false)
			for i := range poly {
				poly[i] %= lane.q
			}
			src := make([]byte, lane.n*int(lane.width)/8)
			packPoly(src, poly, lane.width)
			dst := make(ntt.Poly, lane.n)
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if unpackPolyInto(dst, src, lane.width, lane.q) >= 0 {
					b.Fatal("canonical row rejected")
				}
			}
		})
	}
}

type codecLane struct {
	name  string
	n     int
	width uint
	q     uint32
}

// codecLanes are the codec micro-benchmark rows: one polynomial of P1
// (13-bit) and P2 (14-bit), and one B1 residue row.
func codecLanes() []codecLane {
	p1, p2, b1 := P1(), P2(), B1()
	return []codecLane{
		{"P1", p1.N, p1.rowWidth(0), p1.rowQ(0)},
		{"P2", p2.N, p2.rowWidth(0), p2.rowQ(0)},
		{"B1-row", b1.N, b1.rowWidth(0), b1.rowQ(0)},
	}
}
