package protocol

import (
	"encoding/binary"
	"fmt"
	"io"

	"ringlwe"
	"ringlwe/internal/obs"
)

// Client performs the initiator side of the v2 negotiated handshake: it
// names the scheme's registered parameter-set ID in its hello, streams the
// server's self-describing public-key blob, verifies the header-recovered
// set against its own (ringlwe.ErrParamsMismatch otherwise), encapsulates,
// and derives record keys. Safe to run concurrently with other handshakes
// on the same Scheme.
func Client(rw io.ReadWriter, scheme *ringlwe.Scheme, opts ...Option) (*Channel, error) {
	o := applyOptions(opts)
	id := scheme.Params().WireID()
	if id == 0 {
		return nil, fmt.Errorf("protocol: parameter set %s has no wire ID; register it with ringlwe.RegisterParams",
			scheme.Params().Name())
	}
	return clientV2(rw, scheme, id, o)
}

// ClientAuto performs a v2 handshake without committing to a parameter set
// up front: the hello requests the server's default set (ID 0), the
// parameter set is recovered from the header of the server's public-key
// blob via the registered-params table, and a fresh Scheme is constructed
// for it (configure it with WithSchemeOptions). The negotiated set is
// available afterwards as Channel.Params.
func ClientAuto(rw io.ReadWriter, opts ...Option) (*Channel, error) {
	return clientV2(rw, nil, 0, applyOptions(opts))
}

// clientV2 is the shared v2 initiator: with a scheme, id names its set and
// the server's blob must match; with scheme == nil, id is 0 and the scheme
// is built from whatever registered set the blob's header names.
func clientV2(rw io.ReadWriter, scheme *ringlwe.Scheme, id uint16, o options) (*Channel, error) {
	ct := newConnTrace(o.tracer)
	t0 := ct.start()
	var hello [helloV2Len]byte
	binary.BigEndian.PutUint16(hello[:2], helloMagic)
	hello[2] = helloV2Marker
	hello[3] = protocolV2
	binary.BigEndian.PutUint16(hello[4:6], id)
	if o.wantTicket {
		hello[6] = helloFlagTicket
	}
	if _, err := rw.Write(hello[:]); err != nil {
		err = fmt.Errorf("protocol: hello: %w", err)
		ct.span(obs.PhaseHello, t0, err)
		return nil, err
	}

	var status [1]byte
	if _, err := io.ReadFull(rw, status[:]); err != nil {
		err = fmt.Errorf("protocol: reading hello status: %w", err)
		ct.span(obs.PhaseHello, t0, err)
		return nil, err
	}
	switch status[0] {
	case statusOK:
	case statusReject:
		err := fmt.Errorf("protocol: server does not serve parameter-set ID %d: %w", id, ringlwe.ErrParamsMismatch)
		ct.span(obs.PhaseHello, t0, err)
		return nil, err
	default:
		err := fmt.Errorf("protocol: unknown hello status %d", status[0])
		ct.span(obs.PhaseHello, t0, err)
		return nil, err
	}
	ct.span(obs.PhaseHello, t0, nil)

	// The server's first flight: a self-describing public-key blob, read
	// without buffering — the six-byte header bounds the body exactly.
	t0 = ct.start()
	pk, err := ringlwe.ReadAnyPublicKeyFrom(rw)
	if err != nil {
		err = fmt.Errorf("protocol: reading server key: %w", err)
		ct.span(obs.PhaseNegotiate, t0, err)
		return nil, err
	}
	if scheme == nil {
		scheme = ringlwe.New(pk.Params(), o.schemeOpts...)
	} else if pk.Params().WireID() != id {
		err := fmt.Errorf("protocol: server key is %s (wire ID %d), requested ID %d: %w",
			pk.Params().Name(), pk.Params().WireID(), id, ringlwe.ErrParamsMismatch)
		ct.span(obs.PhaseNegotiate, t0, err)
		return nil, err
	}
	ct.span(obs.PhaseNegotiate, t0, nil)
	return clientKEMFlight(rw, ct, scheme, pk, o)
}

// clientKEMFlight runs the initiator's encapsulation loop against an
// already-received server key and finishes the handshake — including
// reading the session ticket when one was requested. It is shared by the
// full v2 handshake and the resume-fallback path, which joins here after
// the server's statusFallback.
func clientKEMFlight(rw io.ReadWriter, ct *connTrace, scheme *ringlwe.Scheme, pk *ringlwe.PublicKey, o options) (*Channel, error) {
	t0 := ct.start()
	ch, err := clientKEMFlightInner(rw, ct, scheme, pk, o)
	ct.span(obs.PhaseKEMFlight, t0, err)
	return ch, err
}

func clientKEMFlightInner(rw io.ReadWriter, ct *connTrace, scheme *ringlwe.Scheme, pk *ringlwe.PublicKey, o options) (*Channel, error) {
	var status [1]byte
	for attempt := 0; attempt <= maxRetries; attempt++ {
		// Borrow a pooled workspace only for the KEM computation, not
		// across the network round-trip, so stalled peers don't pin
		// workspaces.
		ws := scheme.AcquireWorkspace()
		blob, key, err := ws.Encapsulate(pk)
		scheme.ReleaseWorkspace(ws)
		if err != nil {
			return nil, fmt.Errorf("protocol: encapsulate: %w", err)
		}
		if _, err := blob.WriteTo(rw); err != nil {
			return nil, fmt.Errorf("protocol: sending encapsulation: %w", err)
		}
		if _, err := io.ReadFull(rw, status[:]); err != nil {
			return nil, fmt.Errorf("protocol: reading status: %w", err)
		}
		switch status[0] {
		case statusOK:
			ch := &Channel{
				rw:         rw,
				isClient:   true,
				scheme:     scheme,
				peerPK:     pk,
				rekeyAfter: o.rekeyAfter,
				Retries:    attempt,
				ct:         ct,
			}
			if o.wantTicket {
				// The ticket flight follows the final status; a zero-length
				// blob means the server declined (Session stays nil).
				expiry, tkt, err := readTicketBlob(rw)
				if err != nil {
					return nil, fmt.Errorf("protocol: reading ticket: %w", err)
				}
				if tkt != nil {
					ch.session = &Session{
						scheme: scheme,
						pk:     pk,
						secret: resumeMasterSecret(scheme.Params(), key),
						ticket: tkt,
						expiry: expiry,
					}
				}
			}
			ch.deriveKeysV2(key, 0, true)
			return ch, nil
		case statusRetry:
			continue
		default:
			return nil, fmt.Errorf("protocol: unknown status %d", status[0])
		}
	}
	return nil, errTooManyRetries
}
