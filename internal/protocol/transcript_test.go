package protocol

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"

	"ringlwe"
)

// TestV2WireTranscript pins the v2 bytes on the wire: the 8-byte hellos
// of every client entry point, and the sealed bytes of data and rekey
// records under deriveKeysV2 from a fixed shared secret at two epochs.
// Any change to the hello layout, the key schedule or the record framing
// type ‖ len ‖ ct ‖ tag shows up here as a hex diff.
func TestV2WireTranscript(t *testing.T) {
	hellos := []struct {
		name string
		run  func(rw io.ReadWriter) error
		want string
	}{
		{"Client P1", func(rw io.ReadWriter) error {
			_, err := Client(rw, ringlwe.NewDeterministic(ringlwe.P1(), 1))
			return err
		}, "524cff0200010000"},
		{"Client P2", func(rw io.ReadWriter) error {
			_, err := Client(rw, ringlwe.NewDeterministic(ringlwe.P2(), 1))
			return err
		}, "524cff0200020000"},
		{"ClientAuto", func(rw io.ReadWriter) error {
			_, err := ClientAuto(rw)
			return err
		}, "524cff0200000000"},
		{"WithSessionTicket", func(rw io.ReadWriter) error {
			_, err := Client(rw, ringlwe.NewDeterministic(ringlwe.P1(), 1), WithSessionTicket())
			return err
		}, "524cff0200010100"},
	}
	for _, h := range hellos {
		// The peer sends nothing, so each client stops after its hello.
		var wire bytes.Buffer
		if err := h.run(rwShim{bytes.NewReader(nil), &wire}); err == nil {
			t.Fatalf("%s: handshake succeeded against a silent peer", h.name)
		}
		if got := hex.EncodeToString(wire.Bytes()); got != h.want {
			t.Errorf("%s hello = %s, want %s", h.name, got, h.want)
		}
	}

	var shared [ringlwe.SharedKeySize]byte
	for i := range shared {
		shared[i] = byte(i)
	}
	rekeyBody := bytes.Repeat([]byte{0xA5}, 24)
	records := []struct {
		epoch uint32
		want  []string // data seq 0, data seq 1, rekey seq 2
	}{
		{0, []string{
			"000000000c3a403338fad66cd88569b04a8fa82f230ac2daec533f4123a9ca0d71",
			"000000000c9124ba8f542c3ea233b7d7fcaa531c191b7fafc2dd9174a8a320e5cb",
			"01000000180ab10e608a8e4199333d708bdc911110188305b75319b7004a4161d283c58504d2e2d7c84de90680",
		}},
		{1, []string{
			"000000000c9394d0a4acf979a856650b1a74c0781c72fe768aceec70902b9cf47c",
			"000000000cc598dcbf7b7c15f4aff38e5cb401b1fa39348ddbf394bc14af1d340c",
			"01000000187c3d6ffd99aeb62ab9d56ffa9f63d8b0d1ce0e5ad0ba349f53f48f758ef905df60d0c6af4b683d3d",
		}},
	}
	srv := newTestServer(t, ringlwe.P1())
	tn := srv.tenantByID(0)
	for _, r := range records {
		var wire bytes.Buffer
		sender := srv.newServerChannel(&wire, nil, nil, tn, pathFull)
		sender.deriveKeysV2(shared, r.epoch, true)
		receiver := srv.newServerChannel(rwShim{&wire, io.Discard}, nil, nil, tn, pathFull)
		receiver.deriveKeysV2(shared, r.epoch, false)

		sealed := []struct {
			typ  byte
			body []byte
		}{
			{recordData, []byte("record seq 0")},
			{recordData, []byte("record seq 1")},
			{recordRekey, rekeyBody},
		}
		for i, s := range sealed {
			if err := sender.seal(s.typ, s.body); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(wire.Bytes()); got != r.want[i] {
				t.Errorf("epoch %d record %d = %s, want %s", r.epoch, i, got, r.want[i])
			}
			typ, body, err := receiver.open()
			if err != nil {
				t.Fatalf("epoch %d record %d: open: %v", r.epoch, i, err)
			}
			if typ != s.typ || !bytes.Equal(body, s.body) {
				t.Errorf("epoch %d record %d opened as type %d %q", r.epoch, i, typ, body)
			}
		}
	}
}
