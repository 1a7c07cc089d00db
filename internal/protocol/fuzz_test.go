package protocol

import (
	"bytes"
	"io"
	"testing"
	"time"

	"ringlwe"
)

// FuzzHandshake throws arbitrary first flights at every handshake entry
// point — the multi-tenant server and the three client variants (whose
// peer bytes the fuzzer controls). Nothing may panic: truncated,
// corrupted and kind-confused flights must all surface as errors, and a
// lucky valid prefix must complete or fail cleanly.
func FuzzHandshake(f *testing.F) {
	// Valid hellos.
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 2, 0, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 0, 0, 0})
	// Resume-flagged hellos: truncated, zero-length ticket, garbage
	// ticket of plausible length, oversized length prefix.
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0, 0, 0})
	garbageResume := []byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0, 0, 79}
	garbageResume = append(garbageResume, make([]byte, 79+16)...)
	f.Add(garbageResume)
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0, 0xFF, 0xFF})
	// Must-reject: retired four-byte v1 hellos (P1 and P2 tags), unknown
	// ID, wrong version, bad magic, short.
	f.Add([]byte{0x52, 0x4C, 1, 0})
	f.Add([]byte{0x52, 0x4C, 2, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0xBE, 0xEF, 0, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 9, 0, 1, 0, 0})
	f.Add([]byte{'X', 'Y', 1, 0})
	f.Add([]byte{0x52})

	// Kind confusion for the server: a full valid client flight whose
	// encapsulation is replaced by a public-key blob; and the valid flight
	// itself so the corpus reaches the KEM stage.
	seedScheme := ringlwe.NewDeterministic(ringlwe.P1(), 8001)
	seedPK, _, err := seedScheme.GenerateKeys()
	if err != nil {
		f.Fatal(err)
	}
	ek, _, err := seedScheme.Encapsulate(seedPK)
	if err != nil {
		f.Fatal(err)
	}
	ekBlob, err := ek.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	pkBlob, err := seedPK.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	hello2 := []byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0, 0}
	f.Add(append(append([]byte{}, hello2...), ekBlob...))
	f.Add(append(append([]byte{}, hello2...), pkBlob...))
	f.Add(append(append([]byte{}, hello2...), ekBlob[:37]...))

	// Server flights for the client paths: status ‖ pk blob, raw
	// legacy-tagged pk bytes, and kind-confused variants.
	f.Add(append([]byte{statusOK}, pkBlob...))
	f.Add(append([]byte{statusOK}, ekBlob...))
	f.Add([]byte{statusReject})
	f.Add(seedPK.Bytes())
	// Complete server flights: the client paths run to an established
	// channel (status ‖ pk blob ‖ status), and a legacy-tagged key in
	// its place.
	f.Add(append(append([]byte{statusOK}, pkBlob...), statusOK))
	f.Add(append(seedPK.Bytes(), statusOK))

	// Resume-accepted and resume-fallback server flights for the
	// ClientResume path: statusOK ‖ server random ‖ ticket blob, and
	// statusFallback ‖ pk blob ‖ statusOK.
	resumeOK := append([]byte{statusOK}, make([]byte, randomLen)...)
	resumeOK = append(resumeOK, 0, 8+3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3)
	f.Add(resumeOK)
	f.Add(append(append([]byte{statusFallback}, pkBlob...), statusOK))

	srv := newTestServer(f, ringlwe.P1(), ringlwe.P2())
	clientScheme := ringlwe.NewDeterministic(ringlwe.P1(), 8002)
	resumeSes := &Session{
		scheme: clientScheme,
		pk:     seedPK,
		ticket: make([]byte, 79),
		expiry: time.Now().Add(time.Hour),
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: data is everything the client sends.
		if ch, err := srv.Handshake(rwShim{bytes.NewReader(data), io.Discard}); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
		// Client sides: data is everything the server sends.
		if ch, err := Client(rwShim{bytes.NewReader(data), io.Discard}, clientScheme); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
		if ch, err := ClientAuto(rwShim{bytes.NewReader(data), io.Discard}); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
		if ch, err := ClientResume(rwShim{bytes.NewReader(data), io.Discard}, resumeSes); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
	})
}
