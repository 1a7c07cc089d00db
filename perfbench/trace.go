package main

import (
	"net"
	"slices"
	"sync"
	"time"

	"ringlwe/internal/obs"
)

// kind names a span recorded by the traced run.
type kind uint8

const (
	kDial kind = iota
	kRead
	kWrite
	kHello      // protocol hello + negotiate phases; a client resume call
	kKEMFlight  // protocol KEM flight phase
	kRecord     // protocol record encrypt/decrypt phases
	kTicketOpen // protocol ticket-open phase (server)
	kTicketIssue
	numKinds
)

// phaseKind maps a protocol trace phase onto a ledger span kind.
func phaseKind(p obs.Phase) (kind, bool) {
	switch p {
	case obs.PhaseHello, obs.PhaseNegotiate:
		return kHello, true
	case obs.PhaseKEMFlight:
		return kKEMFlight, true
	case obs.PhaseRecordEncrypt, obs.PhaseRecordDecrypt:
		return kRecord, true
	case obs.PhaseTicketOpen:
		return kTicketOpen, true
	case obs.PhaseTicketIssue:
		return kTicketIssue, true
	}
	return 0, false
}

// span is one timed interval on one goroutine's timeline, in nanoseconds
// since the set-up's origin. meta packs the span's kind (top byte) and
// its byte count (I/O) or port (dial), keeping a span at 24 bytes: a
// traced window holds tens of thousands of ops of them.
type span struct {
	start, end int64
	op         int32
	meta       uint32
}

func (s *span) kind() kind { return kind(s.meta >> 24) }
func (s *span) n() int     { return int(s.meta & (1<<24 - 1)) }

// recorder keeps the spans of one goroutine in memory until the run
// ends: a client worker (op is the worker's current op index) or one
// served connection (op is -1; port is the client's port and accepted
// when the connection was accepted). Only its own goroutine appends.
type recorder struct {
	origin   time.Time
	op       int32
	spans    []span
	port     int
	accepted int64
}

func newRecorder(origin time.Time, op int32, capacity int) *recorder {
	return &recorder{origin: origin, op: op, spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(k kind, start, end int64, n int) {
	r.spans = append(r.spans, span{start: start, end: end, op: r.op, meta: uint32(k)<<24 | uint32(n)})
}

// OnSpan records a completed protocol phase of the client's own
// connection (protocol.WithHandshakeTracer). Failed phases are dropped:
// the ledger attributes only completed work.
func (r *recorder) OnSpan(s obs.Span) {
	k, ok := phaseKind(s.Phase)
	if !ok || s.Err != nil {
		return
	}
	end := r.now()
	r.add(k, end-int64(s.Dur), end, 0)
}

// timedConn records every Read and Write as an I/O span.
type timedConn struct {
	net.Conn
	rec *recorder
}

func (c *timedConn) Read(b []byte) (int, error) {
	t0 := c.rec.now()
	n, err := c.Conn.Read(b)
	c.rec.add(kRead, t0, c.rec.now(), n)
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	t0 := c.rec.now()
	n, err := c.Conn.Write(b)
	c.rec.add(kWrite, t0, c.rec.now(), n)
	return n, err
}

// serverTrace collects the server side of a traced run: one recorder per
// accepted connection, fed by a timing wrapper around the connection and
// by the server's tracer hook. The hook reports a connection id but not
// the net.Conn. The two are joined on the hello: the server emits a
// connection's first span (hello) on its serving goroutine right after
// the connection's first read, so that read hands its recorder to the
// next span with an unknown id through a one-slot channel, and a second
// connection's first read waits until the slot is taken.
type serverTrace struct {
	origin time.Time
	hello  chan *recorder

	mu       sync.Mutex
	conns    []*recorder // one per served connection
	byConn   map[uint64]*recorder
	unjoined int // connections whose spans could not be joined
}

func newServerTrace(origin time.Time) *serverTrace {
	return &serverTrace{origin: origin, hello: make(chan *recorder, 1), byConn: make(map[uint64]*recorder)}
}

// OnSpan records a server phase into its connection's recorder.
func (st *serverTrace) OnSpan(s obs.Span) {
	end := int64(time.Since(st.origin))
	st.mu.Lock()
	rec, ok := st.byConn[s.Conn]
	if !ok {
		select {
		case rec = <-st.hello:
		default:
			st.unjoined++
		}
		st.byConn[s.Conn] = rec
	}
	st.mu.Unlock()
	if k, ok := phaseKind(s.Phase); ok && s.Err == nil && rec != nil {
		rec.add(k, end-int64(s.Dur), end, 0)
	}
}

// served returns every served connection's recorder. Call after the
// server has shut down.
func (st *serverTrace) served() []*recorder {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.conns)
}

// timedListener wraps every accepted connection for the server trace.
type timedListener struct {
	net.Listener
	st *serverTrace
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rec := newRecorder(l.st.origin, -1, 24)
	rec.port, rec.accepted = portOf(c.RemoteAddr()), rec.now()
	l.st.mu.Lock()
	l.st.conns = append(l.st.conns, rec)
	l.st.mu.Unlock()
	return &srvConn{timedConn: timedConn{Conn: c, rec: rec}, st: l.st}, nil
}

// helloHandoff bounds how long a first read waits for the slot; a
// protocol that stopped emitting a span after the first read would
// otherwise stall every later connection.
const helloHandoff = time.Second

// srvConn is a served connection whose first read hands its recorder to
// the hello span.
type srvConn struct {
	timedConn
	st     *serverTrace
	joined bool // only the serving goroutine reads the connection
}

// portOf returns a TCP address's port (0 for other addresses).
func portOf(a net.Addr) int {
	if t, ok := a.(*net.TCPAddr); ok {
		return t.Port
	}
	return 0
}

// assignOps gives every span of a served connection the op id of the
// client op it served, and returns how many spans from start on served
// no op. The connection's client is the worker that dialed its port
// last before it was accepted. A connection dialed by an op serves that
// op; one dialed at set-up serves, at each span, the worker's latest op
// started by then. (A phase's start is its end minus its duration, and
// the hook can run late, so a span may start just after its op ends.)
func assignOps(conns []*recorder, workers []*worker, start int64) (orphans int) {
	type dial struct {
		worker int
		op     int32
		at     int64
	}
	dials := make(map[int][]dial)
	for i, w := range workers {
		for _, s := range w.rec.spans {
			if s.kind() == kDial {
				dials[s.n()] = append(dials[s.n()], dial{i, s.op, s.start})
			}
		}
	}
	for _, c := range conns {
		var from *dial
		for i, d := range dials[c.port] {
			if d.at <= c.accepted {
				from = &dials[c.port][i]
			}
		}
		for i := range c.spans {
			s := &c.spans[i]
			switch {
			case from == nil:
				s.op = -1
			case from.op >= 0:
				s.op = from.op
			default:
				s.op = workers[from.worker].ops.latestAt(s.start)
			}
			if s.op < 0 && s.start >= start {
				orphans++
			}
		}
	}
	return orphans
}

func (c *srvConn) Read(b []byte) (int, error) {
	n, err := c.timedConn.Read(b)
	if !c.joined {
		c.joined = true
		t := time.NewTimer(helloHandoff)
		select {
		case c.st.hello <- c.rec:
		case <-t.C:
			c.st.mu.Lock()
			c.st.unjoined++
			c.st.mu.Unlock()
		}
		t.Stop()
	}
	return n, err
}
