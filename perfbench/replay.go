package main

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"time"

	"ringlwe"
	"ringlwe/internal/core"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
	"ringlwe/internal/ticket"
)

// call is one public call an op makes whose layers the ledger replays.
type call uint8

const (
	cWritePK    call = iota // server: PublicKey.WriteTo (KEM flight)
	cParsePK                // client: ReadAnyPublicKeyFrom (negotiate)
	cEncap                  // client: Workspace.Encapsulate (KEM flight)
	cDecap                  // server: Workspace.Decapsulate (KEM flight)
	cTicketOpen             // server: ticket open + replay check
	cTicketSeal             // server: ticket seal
	cEncrypt                // client: Workspace.EncryptInto (timed in the run)
	cMarshal                // client: Ciphertext.AppendBinary (timed in the run)
	cParseCT                // server: ParseCiphertextInto (agg submit)
	cMarshalAgg             // server: Aggregate.MarshalBinary (agg query)
	cParseAgg               // client: ParseAnyAggregate (agg query)
	cDecrypt                // client: Workspace.DecryptInto (timed in the run)
	numCalls
)

// layer is a layer below ringlwe whose public functions the replay times.
type layer uint8

const (
	lSampler layer = iota
	lForward
	lInverse
	lPointwise
	lEncode
	lDecode
	lCRT
	lPack
	lUnpack
	lTicketSeal
	lTicketOpen
	numLayers
)

// callAcc accumulates the replays of one call: per replayed call, the
// ringlwe parent's inclusive time and each child layer's time, plus the
// children's work. The ledger takes medians over calls, so a burst of
// load from outside the benchmark during the replay does not skew it.
type callAcc struct {
	n        int
	parentNs []int64
	childNs  [numLayers][]int64
	samples  uint64
	nttCalls int
	bytes    int
}

// begin starts one replayed call.
func (a *callAcc) begin() {
	a.n++
	a.parentNs = append(a.parentNs, 0)
	for l := range a.childNs {
		a.childNs[l] = append(a.childNs[l], 0)
	}
}

// replayer re-runs the layer calls of traced ops on the same parameter
// set, backends and keys as the run, after the timed window.
type replayer struct {
	p    *core.Params
	acc  [numCalls]callAcc
	smp  sampler.Engine
	eng  ntt.Engine  // single-modulus sets
	run  *ntt.Runner // RNS sets
	q    uint32      // sampler modulus (first channel for RNS)
	errs []ntt.Poly
	buf  []byte

	rws  *ringlwe.Workspace
	pk   *ringlwe.PublicKey
	sk   *ringlwe.PrivateKey
	cpk  *core.PublicKey
	csk  *core.PrivateKey
	cct  *core.Ciphertext
	cct2 *core.Ciphertext
	m    ntt.Poly
	dst  []byte

	rct     *ringlwe.Ciphertext
	scratch *ringlwe.Ciphertext
	wire    []byte
	pkBlob  []byte
	ekBlob  ringlwe.EncapsulatedKey
	seed    []byte // KEM seed the encode replay encodes

	keeper *ticket.Keeper
	cache  *ticket.ReplayCache
	tkt    []byte
}

// newReplayer binds the replay to the scheme's backends and a key pair.
func newReplayer(cp *core.Params, scheme *ringlwe.Scheme, pk *ringlwe.PublicKey, sk *ringlwe.PrivateKey) (*replayer, error) {
	r := &replayer{p: cp, rws: scheme.NewWorkspace(), pk: pk, sk: sk, dst: make([]byte, cp.MessageBytes())}
	var err error
	if r.smp, err = sampler.New(scheme.Sampler(), cp.SamplerConfig(), rng.NewXorshift128(1)); err != nil {
		return nil, err
	}
	if cp.IsRNS() {
		engs, err := cp.Basis.ResolveEngines(scheme.Engine())
		if err != nil {
			return nil, err
		}
		if r.run, err = ntt.NewRunner(engs); err != nil {
			return nil, err
		}
		r.q = cp.Basis.Moduli[0]
	} else {
		if r.eng, err = ntt.NewEngine(scheme.Engine(), cp.Tables); err != nil {
			return nil, err
		}
		r.q = cp.Q
	}
	size := cp.N * cp.K()
	for range 3 {
		r.errs = append(r.errs, make(ntt.Poly, size))
	}
	r.m = make(ntt.Poly, size)
	if r.cpk, err = core.ParsePublicKey(cp, pk.Bytes()); err != nil {
		return nil, err
	}
	if r.csk, err = core.ParsePrivateKey(cp, sk.Bytes()); err != nil {
		return nil, err
	}
	r.cct, r.cct2 = core.NewCiphertext(cp), core.NewCiphertext(cp)
	if r.pkBlob, err = pk.MarshalBinary(); err != nil {
		return nil, err
	}
	r.rct, r.scratch = ringlwe.NewCiphertext(pk.Params()), ringlwe.NewCiphertext(pk.Params())
	r.seed = make([]byte, cp.MessageBytes())
	rand.Read(r.seed)
	r.keeper = ticket.NewKeeper(rand.Reader, time.Hour)
	r.cache = ticket.NewReplayCache(nil)
	r.tkt = r.keeper.Seal(r.ticketState())
	return r, nil
}

func (r *replayer) ticketState() ticket.State {
	return ticket.State{ParamsID: 1, Expiry: time.Now().Add(time.Hour)}
}

// child times one child-layer call of the call being replayed.
func (a *callAcc) child(l layer, f func()) {
	t0 := time.Now()
	f()
	a.childNs[l][a.n-1] += int64(time.Since(t0))
}

// parent times the ringlwe call itself.
func (a *callAcc) parent(f func() error) error {
	t0 := time.Now()
	err := f()
	a.parentNs[a.n-1] += int64(time.Since(t0))
	return err
}

// sample draws the three error polynomials of one encryption. For an
// RNS set the sampler fills the first channel's row and every other row
// re-reduces the same signed values mod its own prime.
func (r *replayer) sample(a *callAcc) {
	before := r.smp.Stats().Samples
	n := r.p.N
	for _, e := range r.errs {
		a.child(lSampler, func() {
			r.smp.SamplePolyInto(e[:n], r.q)
			for i := 1; i < r.p.K(); i++ {
				qi := r.p.Basis.Moduli[i]
				for j, v := range e[:n] {
					if v > r.q/2 {
						v = qi - (r.q - v)
					}
					e[i*n+j] = v
				}
			}
		})
	}
	a.samples += r.smp.Stats().Samples - before
}

// encryptLayers replays the layers of one encryption of msg into r.cct:
// sampling, message encoding, the fused forward transforms and the
// pointwise products and sums.
func (r *replayer) encryptLayers(a *callAcc, msg []byte) {
	r.sample(a)
	a.child(lEncode, func() { _, _ = core.Encode(r.p, msg) })
	e1, e2, e3 := r.errs[0], r.errs[1], r.errs[2]
	c := r.cct
	if r.run != nil {
		a.child(lForward, func() { r.run.ForwardThreeAll(e1, e2, e3) })
		a.child(lPointwise, func() {
			r.run.MulAll(c.C1, r.cpk.A, e1)
			r.run.AddAll(c.C1, c.C1, e2)
			r.run.MulAll(c.C2, r.cpk.P, e1)
			r.run.AddAll(c.C2, c.C2, e3)
		})
	} else {
		t := r.p.Tables
		a.child(lForward, func() { r.eng.ForwardMany(r.errs) })
		a.child(lPointwise, func() {
			r.eng.PointwiseMul(c.C1, r.cpk.A, e1)
			t.Add(c.C1, c.C1, e2)
			r.eng.PointwiseMul(c.C2, r.cpk.P, e1)
			t.Add(c.C2, c.C2, e3)
		})
	}
	a.nttCalls += 5
}

// decryptLayers replays the layers of one decryption of ct with r.csk.
func (r *replayer) decryptLayers(a *callAcc, ct *core.Ciphertext) {
	m := r.m
	if r.run != nil {
		a.child(lPointwise, func() {
			r.run.MulAll(m, ct.C1, r.csk.R2)
			r.run.AddAll(m, m, ct.C2)
		})
		a.child(lInverse, func() { r.run.InverseAll(m) })
		a.child(lCRT, func() { core.DecodeInto(r.dst, r.p, m) })
	} else {
		a.child(lPointwise, func() {
			r.eng.PointwiseMul(m, ct.C1, r.csk.R2)
			r.p.Tables.Add(m, m, ct.C2)
		})
		a.child(lInverse, func() { r.eng.Inverse(m) })
		a.child(lDecode, func() { core.DecodeInto(r.dst, r.p, m) })
	}
	a.nttCalls += 3
}

// pack and unpack time the codec on r.cct's body.
func (r *replayer) pack(a *callAcc, ct *core.Ciphertext) []byte {
	a.child(lPack, func() { r.buf = ct.AppendTo(r.buf[:0]) })
	a.bytes += len(r.buf)
	return r.buf
}

func (r *replayer) unpack(a *callAcc, body []byte) error {
	var err error
	a.child(lUnpack, func() { err = core.ParseCiphertextBodyInto(r.cct2, body) })
	a.bytes += len(body)
	return err
}

// kemAttempt replays one KEM attempt: the client's encapsulation and the
// server's decapsulation of its blob.
func (r *replayer) kemAttempt() error {
	a := &r.acc[cEncap]
	a.begin()
	err := a.parent(func() (err error) { r.ekBlob, _, err = r.rws.Encapsulate(r.pk); return })
	if err != nil {
		return err
	}
	r.encryptLayers(a, r.seed)
	ctLen := 1 + 2*r.p.PolyBytes()
	blob := make([]byte, ctLen)
	a.child(lPack, func() { err = r.cct.MarshalInto(blob) })
	a.bytes += ctLen - 1
	if err != nil {
		return err
	}

	d := &r.acc[cDecap]
	d.begin()
	err = d.parent(func() error { _, err := r.rws.Decapsulate(r.sk, r.ekBlob); return err })
	if err != nil && !errors.Is(err, ringlwe.ErrDecapsulation) {
		return err
	}
	d.child(lUnpack, func() { err = core.ParseCiphertextInto(r.cct2, r.ekBlob[:ctLen]) })
	d.bytes += ctLen - 1
	if err != nil {
		return err
	}
	r.decryptLayers(d, r.cct2)
	return nil
}

// keyExchange replays the server's public-key flight and the client's
// parse of it.
func (r *replayer) keyExchange() error {
	w := &r.acc[cWritePK]
	w.begin()
	if err := w.parent(func() error { _, err := r.pk.WriteTo(io.Discard); return err }); err != nil {
		return err
	}
	w.child(lPack, func() { r.buf = r.cpk.AppendTo(r.buf[:0]) })
	w.bytes += len(r.buf)

	p := &r.acc[cParsePK]
	p.begin()
	if err := p.parent(func() error { _, err := ringlwe.ReadAnyPublicKeyFrom(bytes.NewReader(r.pkBlob)); return err }); err != nil {
		return err
	}
	body := r.pkBlob[len(r.pkBlob)-2*r.p.PolyBytes():]
	var err error
	p.child(lUnpack, func() { _, err = core.ParsePublicKeyBody(r.p, body) })
	p.bytes += len(body)
	return err
}

// resumption replays the server's ticket open and reissue.
func (r *replayer) resumption() error {
	o := &r.acc[cTicketOpen]
	o.begin()
	var err error
	o.child(lTicketOpen, func() {
		var st ticket.State
		var id [ticket.ReplayIDLen]byte
		if st, id, err = r.keeper.Open(r.tkt); err == nil && r.cache.Seen(id, st.Expiry) {
			err = errors.New("replayed ticket")
		}
	})
	if err != nil {
		return err
	}
	s := &r.acc[cTicketSeal]
	s.begin()
	st := r.ticketState()
	s.child(lTicketSeal, func() { r.tkt = r.keeper.Seal(st) })
	return nil
}

// submission replays one agg-b1 submit of msg: the client's encryption
// and marshal, and the server's parse.
func (r *replayer) submission(msg []byte) error {
	e := &r.acc[cEncrypt]
	e.begin()
	if err := e.parent(func() error { return r.rws.EncryptInto(r.rct, r.pk, msg) }); err != nil {
		return err
	}
	r.encryptLayers(e, msg)

	m := &r.acc[cMarshal]
	m.begin()
	if err := m.parent(func() (err error) { r.wire, err = r.rct.AppendBinary(r.wire[:0]); return }); err != nil {
		return err
	}
	r.pack(m, r.cct)

	p := &r.acc[cParseCT]
	p.begin()
	if err := p.parent(func() error { return ringlwe.ParseCiphertextInto(r.scratch, r.wire) }); err != nil {
		return err
	}
	return r.unpack(p, r.wire[len(r.wire)-2*r.p.PolyBytes():])
}

// query replays the owner's query of sum: the server's marshal, the
// client's parse and the decryption's layers.
func (r *replayer) query(sum *ringlwe.Ciphertext) error {
	csum, err := core.ParseCiphertext(r.p, sum.Bytes())
	if err != nil {
		return err
	}
	m := &r.acc[cMarshalAgg]
	m.begin()
	var wire []byte
	if err := m.parent(func() (err error) { wire, err = ringlwe.Aggregate{Ciphertext: sum}.MarshalBinary(); return }); err != nil {
		return err
	}
	r.pack(m, csum)

	p := &r.acc[cParseAgg]
	p.begin()
	if err := p.parent(func() error { _, err := ringlwe.ParseAnyAggregate(wire); return err }); err != nil {
		return err
	}
	if err := r.unpack(p, wire[len(wire)-2*r.p.PolyBytes():]); err != nil {
		return err
	}
	d := &r.acc[cDecrypt]
	d.begin()
	if err := d.parent(func() error { return r.rws.DecryptInto(r.dst, r.sk, sum) }); err != nil {
		return err
	}
	r.decryptLayers(d, csum)
	return nil
}

// replayOp re-runs the layer calls of one traced op, in the op's order
// and number.
func (r *replayer) replayOp(o *opRec, in *aggInput) error {
	if o.submit {
		if in == nil {
			return errors.New("agg op without kept inputs")
		}
		if err := r.submission(in.msg); err != nil {
			return err
		}
		if in.sum != nil {
			return r.query(in.sum)
		}
		return nil
	}
	if o.resumed {
		return r.resumption()
	}
	if o.attempts == 0 {
		return errors.New("op ran neither a KEM nor a resumption")
	}
	if err := r.keyExchange(); err != nil {
		return err
	}
	for range o.attempts {
		if err := r.kemAttempt(); err != nil {
			return err
		}
	}
	return nil
}
