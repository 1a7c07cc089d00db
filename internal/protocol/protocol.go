// Package protocol implements a secure-channel protocol over the ring-LWE
// KEM — the "interconnected devices, even over the Internet" scenario the
// paper's introduction motivates, and the use case its Table III peer [9]
// (Bos et al., ring-LWE key exchange for TLS) evaluates.
//
// The handshake (protocol version 2) negotiates the parameter set through
// the library's self-describing wire format. The client's first flight
// names a registered parameter-set ID (or 0 for "server's choice"); the
// server answers with a status byte and streams its self-describing
// public-key blob, whose six-byte header carries the set actually served,
// so the client recovers the parameters from the blob itself via the
// registered-params table:
//
//	C → S   HELLO2: magic ‖ 0xFF ‖ 2 ‖ params ID ‖ flags ‖ 0   (8 bytes)
//	S → C   status ‖ self-describing public key               (streamed)
//	C → S   self-describing KEM encapsulation blob            (streamed)
//	S → C   status (OK, or RETRY after an intrinsic LPR decryption
//	        failure, in which case the client encapsulates again)
//
// A first flight that is not a version-2 hello (including the retired
// four-byte version-1 hello) is rejected at once as a malformed hello.
//
// Both sides then derive direction-separated AES-128-CTR + HMAC-SHA256
// keys from the shared secret and exchange typed, length-prefixed sealed
// records with monotonic sequence numbers (replay and reorder detection).
// The type byte carries in-band rekeying for long-lived sessions: after
// WithRekeyAfter(n) records the client transparently encapsulates a fresh
// session key to the server's long-term public key inside the channel
// (acknowledged before either side switches, so an intrinsic decryption
// failure downgrades to a retry, not a dead channel), and both sides roll
// to epoch-separated keys with reset sequence numbers.
//
// A handshake that set the ticket flag additionally receives a
// session-resumption ticket — the server's AES-GCM-sealed copy of a
// resumption master secret both sides derive (see resume.go). Presenting
// it on reconnect (ClientResume, the resume flag) skips the KEM flight:
// the server answers with a fresh random and a reissued single-use
// ticket, both sides derive the record keys from the master secret plus
// the two randoms, and an invalid ticket transparently downgrades to a
// full handshake on the same connection (statusFallback). Flags ride in
// the formerly reserved hello byte, so unflagged flows remain
// bit-identical to older clients and servers.
//
// Handshakes borrow a pooled per-goroutine workspace from the shared
// Scheme for all KEM work, so any number of connections may handshake
// concurrently against one Scheme and one long-term key pair without
// contention or per-message garbage. The Server type serves several
// parameter sets at once — one Scheme and key pair per registered set —
// across shard-per-core accept lanes with per-shard workspaces, burst
// decapsulation batching, and lock-free merged stats (see server.go and
// shard.go).
package protocol

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ringlwe"
	"ringlwe/internal/obs"
)

// Protocol constants.
const (
	helloMagic    = 0x524C // "RL"
	helloPrefix   = 4      // magic ‖ marker ‖ version, read before the rest
	helloV2Len    = 8
	helloV2Marker = 0xFF
	protocolV2    = 2

	statusOK       = 0
	statusRetry    = 1
	statusReject   = 2
	statusFallback = 3 // resumption refused; a full handshake follows inline

	// v2 hello flags (hello byte 6, formerly reserved — zero from older
	// clients, so unflagged flows stay bit-identical on the wire).
	helloFlagTicket = 0x01 // request a session-resumption ticket
	helloFlagResume = 0x02 // a ticket + client random follow the hello

	maxRetries   = 8
	maxRecordLen = 1 << 20
	tagLen       = 16

	// maxTicketWire bounds the length-prefixed ticket blobs either side
	// will read; real tickets are well under it.
	maxTicketWire = 512

	// randomLen is the size of the client/server freshness contributions
	// mixed into a resumed session's key schedule.
	randomLen = 16

	// maxPendingRecords bounds how many in-flight data records a client
	// will buffer while waiting for a rekey ack.
	maxPendingRecords = 1024

	// Record types.
	recordData      = 0
	recordRekey     = 1
	recordRekeyAck  = 2
	recordRekeyNack = 3
)

// Option configures a handshake.
type Option func(*options)

type options struct {
	rekeyAfter uint64
	schemeOpts []ringlwe.Option
	wantTicket bool
	tracer     obs.Tracer
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithRekeyAfter makes a client refresh the session keys after n data
// records (counting both directions): before the n+1th send it runs an
// in-band KEM rekey and both sides roll to fresh epoch-separated keys.
// Zero (the default) never rekeys. Servers follow the client's lead and
// need no option.
func WithRekeyAfter(n uint64) Option {
	return func(o *options) { o.rekeyAfter = n }
}

// WithSchemeOptions forwards scheme construction options (profiles,
// WithRandom, …) to the Scheme a ClientAuto handshake builds for the
// server-chosen parameter set. Ignored by handshakes given an explicit
// Scheme.
func WithSchemeOptions(opts ...ringlwe.Option) Option {
	return func(o *options) { o.schemeOpts = opts }
}

// WithHandshakeTracer installs a client-side trace hook: the handshake
// and the channel's record/rekey paths emit one obs.Span per completed
// phase to t, all carrying the same process-unique connection id. The
// server-side equivalent is the WithTracer server option.
func WithHandshakeTracer(t obs.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithSessionTicket makes a client request a session-resumption ticket
// in its hello: a ticket-issuing server hands back an encrypted ticket at
// handshake completion, available as Channel.Session, and the next
// connection can skip the KEM flight entirely via ClientResume. Servers
// that do not issue tickets leave Session nil; the handshake itself is
// unchanged.
func WithSessionTicket() Option {
	return func(o *options) { o.wantTicket = true }
}

// Channel is an established secure channel. Not safe for concurrent use;
// callers serialize Send/Recv per side as usual for record protocols.
type Channel struct {
	rw io.ReadWriter

	// KEM state for rekeying: the client keeps the scheme and the server's
	// long-term public key, the server its scheme and private key.
	isClient bool
	scheme   *ringlwe.Scheme
	peerPK   *ringlwe.PublicKey
	localSK  *ringlwe.PrivateKey

	// rekeyAfter is the data-record count that triggers a client-side
	// rekey; records counts data records sealed or opened at the current
	// epoch; epoch separates successive key schedules in the derivation.
	rekeyAfter uint64
	records    uint64
	epoch      uint32

	// onRekey notifies the serving layer (per-params counters).
	onRekey func()

	// Observability wiring. m and shard point a server-side channel at
	// its tenant's record-layer counters (nil m on client channels and
	// disables them); ct carries the connection's trace identity (nil
	// disables spans with one pointer check per record).
	path  hsPath
	m     *tenantMetrics
	shard int
	ct    *connTrace

	// resumed marks a channel established from a session ticket (no KEM
	// flight); session holds the client's resumption state for the next
	// reconnect, when ticket issuance was requested.
	resumed bool
	session *Session

	// pending queues data records that arrive while the client waits for
	// a rekey ack — records the peer sealed under the old epoch before it
	// processed the rekey (per-direction FIFO ordering delivers them
	// ahead of the ack). Recv drains it before reading the wire.
	pending [][]byte

	sendKey [16]byte
	recvKey [16]byte
	sendMAC [32]byte
	recvMAC [32]byte
	sendSeq uint64
	recvSeq uint64

	// Retries records how many KEM retries the handshake needed (usually 0;
	// each intrinsic LPR decryption failure adds one).
	Retries int
	// Rekeys records how many epoch rolls the channel has completed.
	Rekeys int
}

// Params returns the negotiated parameter set.
func (c *Channel) Params() *ringlwe.Params { return c.scheme.Params() }

// Scheme returns the scheme the channel's KEM operations run on — for a
// ClientAuto handshake, the scheme constructed for the server-chosen set.
func (c *Channel) Scheme() *ringlwe.Scheme { return c.scheme }

// Resumed reports whether the channel was established from a session
// ticket (skipping the KEM flight) rather than a full handshake.
func (c *Channel) Resumed() bool { return c.resumed }

// Session returns the client's resumption state for the next reconnect —
// non-nil after a handshake that requested a ticket (WithSessionTicket or
// ClientResume) against a ticket-issuing server. Server-side channels and
// plain handshakes return nil.
func (c *Channel) Session() *Session { return c.session }

// deriveKeysV2 expands the shared secret into the four directional keys of
// one epoch. The label binds the protocol generation, the negotiated
// parameter set and the epoch counter, so keys from different epochs (and
// different negotiated sets) live in disjoint domains.
func (c *Channel) deriveKeysV2(shared [ringlwe.SharedKeySize]byte, epoch uint32, isClient bool) {
	name := c.scheme.Params().Name()
	expand := func(label string) [32]byte {
		h := sha256.New()
		h.Write([]byte("ringlwe-channel-v2 " + name + " " + label))
		var e [4]byte
		binary.BigEndian.PutUint32(e[:], epoch)
		h.Write(e[:])
		h.Write(shared[:])
		var out [32]byte
		copy(out[:], h.Sum(nil))
		return out
	}
	c.setKeys(expand("c2s"), expand("s2c"), expand("c2s-mac"), expand("s2c-mac"), isClient)
}

func (c *Channel) setKeys(c2s, s2c, c2sMAC, s2cMAC [32]byte, isClient bool) {
	if isClient {
		copy(c.sendKey[:], c2s[:16])
		copy(c.recvKey[:], s2c[:16])
		c.sendMAC, c.recvMAC = c2sMAC, s2cMAC
	} else {
		copy(c.sendKey[:], s2c[:16])
		copy(c.recvKey[:], c2s[:16])
		c.sendMAC, c.recvMAC = s2cMAC, c2sMAC
	}
}

// switchEpoch rolls both directions to the key schedule of the next epoch
// and resets the sequence numbers and the rekey record counter.
func (c *Channel) switchEpoch(shared [ringlwe.SharedKeySize]byte) {
	c.epoch++
	c.deriveKeysV2(shared, c.epoch, c.isClient)
	c.sendSeq, c.recvSeq = 0, 0
	c.records = 0
	c.Rekeys++
	if c.onRekey != nil {
		c.onRekey()
	}
}

// record layout:
//
//	1-byte type ‖ 4-byte length ‖ ciphertext ‖ 16-byte truncated HMAC
//	over (seq ‖ type ‖ length ‖ ciphertext)

func stream(key [16]byte, seq uint64, data []byte) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[:8], seq)
	out := make([]byte, len(data))
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, data)
	return out
}

func mac(key [32]byte, seq uint64, typ byte, length uint32, ct []byte) []byte {
	m := hmac.New(sha256.New, key[:])
	var hdr [13]byte
	binary.BigEndian.PutUint64(hdr[:8], seq)
	hdr[8] = typ
	binary.BigEndian.PutUint32(hdr[9:], length)
	m.Write(hdr[:])
	m.Write(ct)
	return m.Sum(nil)[:tagLen]
}

// seal encrypts and writes one record of the given type, with the
// record-layer accounting around sealRecord: server channels count
// records and payload bytes (two uncontended atomic adds), and a traced
// channel emits a PhaseRecordEncrypt span. Untraced client channels pay
// two nil checks.
func (c *Channel) seal(typ byte, msg []byte) error {
	t0 := c.ct.start()
	err := c.sealRecord(typ, msg)
	if c.m != nil && err == nil {
		c.m.recordsSent.Inc(c.shard)
		c.m.bytesSent.Add(c.shard, uint64(len(msg)))
	}
	c.ct.span(obs.PhaseRecordEncrypt, t0, err)
	return err
}

func (c *Channel) sealRecord(typ byte, msg []byte) error {
	if len(msg) > maxRecordLen {
		return fmt.Errorf("protocol: record too large (%d bytes)", len(msg))
	}
	ct := stream(c.sendKey, c.sendSeq, msg)
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(ct)))
	tag := mac(c.sendMAC, c.sendSeq, typ, uint32(len(ct)), ct)
	c.sendSeq++
	if _, err := c.rw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.rw.Write(ct); err != nil {
		return err
	}
	_, err := c.rw.Write(tag)
	return err
}

// open reads and authenticates one record, returning its type. Mirrors
// seal's accounting: records/bytes opened on server channels, a
// PhaseRecordDecrypt span when traced.
func (c *Channel) open() (byte, []byte, error) {
	t0 := c.ct.start()
	typ, msg, err := c.openRecord()
	if c.m != nil && err == nil {
		c.m.recordsRecv.Inc(c.shard)
		c.m.bytesRecv.Add(c.shard, uint64(len(msg)))
	}
	c.ct.span(obs.PhaseRecordDecrypt, t0, err)
	return typ, msg, err
}

func (c *Channel) openRecord() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ := hdr[0]
	length := binary.BigEndian.Uint32(hdr[1:])
	if length > maxRecordLen {
		return 0, nil, fmt.Errorf("protocol: oversized record (%d bytes)", length)
	}
	ct := make([]byte, length)
	if _, err := io.ReadFull(c.rw, ct); err != nil {
		return 0, nil, err
	}
	tag := make([]byte, tagLen)
	if _, err := io.ReadFull(c.rw, tag); err != nil {
		return 0, nil, err
	}
	want := mac(c.recvMAC, c.recvSeq, typ, length, ct)
	if !hmac.Equal(tag, want) {
		return 0, nil, errors.New("protocol: record authentication failed")
	}
	msg := stream(c.recvKey, c.recvSeq, ct)
	c.recvSeq++
	return typ, msg, nil
}

// Send seals and writes one data record, transparently rekeying first when
// the channel's rekey threshold has been reached (clients only).
func (c *Channel) Send(msg []byte) error {
	if c.needRekey() {
		if err := c.rekey(); err != nil {
			return err
		}
	}
	if err := c.seal(recordData, msg); err != nil {
		return err
	}
	c.records++
	return nil
}

// Recv reads and opens records until a data record arrives, transparently
// serving in-band rekey requests on the way (servers only).
// Authentication failures and replays surface as errors and poison
// nothing: the caller may close the channel.
func (c *Channel) Recv() ([]byte, error) {
	if len(c.pending) > 0 {
		msg := c.pending[0]
		c.pending = c.pending[1:]
		c.records++
		return msg, nil
	}
	for {
		typ, msg, err := c.open()
		if err != nil {
			return nil, err
		}
		switch typ {
		case recordData:
			c.records++
			return msg, nil
		case recordRekey:
			if c.isClient {
				return nil, errors.New("protocol: unexpected rekey record from server")
			}
			if err := c.acceptRekey(msg); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("protocol: unexpected record type %d", typ)
		}
	}
}

func (c *Channel) needRekey() bool {
	return c.isClient && c.rekeyAfter > 0 && c.records >= c.rekeyAfter
}

// rekey runs the client side of an in-band epoch roll: encapsulate a fresh
// session key to the server's long-term public key, send it as a rekey
// record under the current keys, and switch only after the server
// acknowledges — an intrinsic LPR decryption failure comes back as a nack
// and the client simply encapsulates again.
func (c *Channel) rekey() error {
	t0 := c.ct.start()
	err := c.rekeyFlight()
	c.ct.span(obs.PhaseRekey, t0, err)
	return err
}

func (c *Channel) rekeyFlight() error {
	for attempt := 0; attempt <= maxRetries; attempt++ {
		ws := c.scheme.AcquireWorkspace()
		blob, key, err := ws.Encapsulate(c.peerPK)
		c.scheme.ReleaseWorkspace(ws)
		if err != nil {
			return fmt.Errorf("protocol: rekey encapsulate: %w", err)
		}
		if err := c.seal(recordRekey, blob); err != nil {
			return fmt.Errorf("protocol: sending rekey: %w", err)
		}
	await:
		for {
			typ, msg, err := c.open()
			if err != nil {
				return fmt.Errorf("protocol: reading rekey ack: %w", err)
			}
			switch typ {
			case recordRekeyAck:
				c.switchEpoch(key)
				return nil
			case recordRekeyNack:
				break await
			case recordData:
				// An in-flight data record the peer sealed under the old
				// epoch before processing the rekey; queue it for Recv
				// instead of killing the session.
				if len(c.pending) >= maxPendingRecords {
					return errors.New("protocol: too many data records in flight across a rekey")
				}
				c.pending = append(c.pending, msg)
			default:
				return fmt.Errorf("protocol: expected rekey ack, got record type %d", typ)
			}
		}
	}
	return errors.New("protocol: too many rekey retries")
}

// acceptRekey runs the server side of an epoch roll: decapsulate the
// client's blob with the long-term private key, acknowledge under the
// current keys, then switch. The blob length is validated against the
// negotiated parameter set before any KEM work.
func (c *Channel) acceptRekey(blob []byte) error {
	t0 := c.ct.start()
	err := c.acceptRekeyFlight(blob)
	c.ct.span(obs.PhaseRekey, t0, err)
	return err
}

func (c *Channel) acceptRekeyFlight(blob []byte) error {
	if want := c.scheme.Params().EncapsulationSize(); len(blob) != want {
		return fmt.Errorf("protocol: rekey blob is %d bytes, want %d: %w",
			len(blob), want, ringlwe.ErrParamsMismatch)
	}
	ws := c.scheme.AcquireWorkspace()
	key, err := ws.Decapsulate(c.localSK, ringlwe.EncapsulatedKey(blob))
	c.scheme.ReleaseWorkspace(ws)
	if errors.Is(err, ringlwe.ErrDecapsulation) {
		return c.seal(recordRekeyNack, nil)
	}
	if err != nil {
		return fmt.Errorf("protocol: rekey decapsulate: %w", err)
	}
	if err := c.seal(recordRekeyAck, nil); err != nil {
		return err
	}
	c.switchEpoch(key)
	return nil
}
