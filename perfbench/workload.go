package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ringlwe"
	"ringlwe/internal/agg"
	"ringlwe/internal/protocol"
)

const (
	// echoSize is the record each handshake and resume op echoes.
	echoSize = 256
	// aggWindow is the number of submissions between an owner's
	// query-decrypt-reset checks on agg-b1.
	aggWindow = 64
)

// workload is one traffic mix. Every workload takes the seed and runs one
// closed-loop client per worker.
type workload struct {
	name   string
	params func() *ringlwe.Params
	// prepare runs once per worker at set-up (first handshake, ticket or
	// stream creation); op runs one measured operation.
	prepare func(w *worker) error
	op      func(w *worker, o *opRec) error
	// rssOps is the window op count at which max_rss_mb is read, so the
	// peak covers a fixed amount of work whatever the machine's speed:
	// the resume-p1 server keeps every ticket's replay ID for the
	// ticket's lifetime, so its memory grows with resumptions done.
	rssOps int64
}

var workloads = map[string]*workload{
	// The paper's KEM on the wire: sampler, single-modulus NTT and the
	// P1 codec all work on every op.
	"handshake-p1": {name: "handshake-p1", params: ringlwe.P1, prepare: prepareHandshake, op: handshakeOp, rssOps: 60000},
	// Same protocol and record layers, no lattice work: the no-change
	// control for every sampler, NTT or codec change.
	"resume-p1": {name: "resume-p1", params: ringlwe.P1, prepare: prepareResume, op: resumeOp, rssOps: 150000},
	// The aggregation submit path on B1: codec-dominated, and the only
	// workload on the RNS runner and CRT decode.
	"agg-b1": {name: "agg-b1", params: ringlwe.B1, prepare: prepareAgg, op: aggOp, rssOps: 10000},
}

type config struct {
	wl      *workload
	seed    uint64
	workers int
}

// opRec is one completed op of a worker.
type opRec struct {
	start, end int64
	attempts   uint8 // KEM attempts (1 + retries); 0 when no KEM ran
	resumed    bool  // the op resumed from a ticket
	fellBack   bool  // a resumption fell back to a full handshake
	submit     bool  // the op submitted to an aggregation stream
	query      bool  // the op ended an aggregation window
	failed     bool
}

// opChunk is the op log's chunk size.
const opChunk = 4096

// opLog is a worker's ops in fixed-size chunks: appending never copies,
// so the benchmark's own memory grows a chunk at a time and stays small
// next to the program's.
type opLog struct {
	chunks []*[opChunk]opRec
	n      int
}

func (l *opLog) add(o opRec) {
	if l.n == len(l.chunks)*opChunk {
		l.chunks = append(l.chunks, new([opChunk]opRec))
	}
	l.chunks[l.n/opChunk][l.n%opChunk] = o
	l.n++
}

func (l *opLog) at(i int) *opRec { return &l.chunks[i/opChunk][i%opChunk] }

// latestAt returns the index of the latest op started by origin-relative
// time t, or -1.
func (l *opLog) latestAt(t int64) int32 {
	return int32(sort.Search(l.n, func(i int) bool { return l.at(i).start > t })) - 1
}

// aggInput is what a traced agg-b1 op fed the program, kept for the
// ledger's replay: the message and, on a query op, the aggregate.
type aggInput struct {
	msg []byte
	sum *ringlwe.Ciphertext
}

// env is one set-up of a workload: the server, its tenant and the
// client workers.
type env struct {
	cfg    config
	origin time.Time

	scheme    *ringlwe.Scheme // client side, shared by the workers
	srvScheme *ringlwe.Scheme
	srvPK     *ringlwe.PublicKey
	srvSK     *ringlwe.PrivateKey
	srv       *protocol.Server
	eng       *agg.Engine
	addr      string
	served    chan error
	st        *serverTrace
	workers   []*worker
}

// setup builds a server with one tenant for the workload's parameter set
// on a loopback listener and prepares one client per worker. It returns
// the time that took.
func setup(cfg config, traced bool) (*env, time.Duration, error) {
	t0 := time.Now()
	p := cfg.wl.params()
	e := &env{cfg: cfg, origin: t0, served: make(chan error, 1)}
	e.srvScheme = ringlwe.New(p)
	var err error
	if e.srvPK, e.srvSK, err = e.srvScheme.NewWorkspace().GenerateKeys(); err != nil {
		return nil, 0, err
	}
	handler := echo
	if cfg.wl.name == "agg-b1" {
		e.eng = agg.New(cfg.workers)
		handler = e.eng.Handle
	}
	opts := []protocol.ServerOption{protocol.WithShards(cfg.workers), protocol.WithHandler(handler)}
	if traced {
		e.st = newServerTrace(e.origin)
		opts = append(opts, protocol.WithTracer(e.st))
	}
	e.srv = protocol.NewServer(opts...)
	if e.eng != nil {
		e.eng.Instrument(e.srv.Metrics())
	}
	if err := e.srv.AddTenant(e.srvScheme, e.srvPK, e.srvSK); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	e.addr = ln.Addr().String()
	if traced {
		ln = &timedListener{Listener: ln, st: e.st}
	}
	go func() { e.served <- e.srv.Serve(ln) }()

	e.scheme = ringlwe.New(p)
	for i := 0; i < cfg.workers; i++ {
		w := &worker{e: e, in: newInputs(cfg.seed, i), msg: make([]byte, echoSize)}
		if traced {
			w.kept = make(map[int]*aggInput)
			w.rec = newRecorder(e.origin, -1, 1<<16)
			w.opts = []protocol.Option{protocol.WithHandshakeTracer(w.rec)}
		}
		e.workers = append(e.workers, w)
		if err := cfg.wl.prepare(w); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("%s: preparing worker %d: %w", cfg.wl.name, i, err)
		}
	}
	return e, time.Since(t0), nil
}

// close disconnects the workers and shuts the server down, waiting for
// its goroutines.
func (e *env) close() {
	for _, w := range e.workers {
		if w.conn != nil {
			w.conn.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // past the timeout it closes the connections itself
	<-e.served
}

// echo is the server handler of the handshake and resume workloads.
func echo(ch *protocol.Channel) {
	for {
		msg, err := ch.Recv()
		if err != nil {
			return
		}
		if ch.Send(msg) != nil {
			return
		}
	}
}

// inputs is a worker's seeded input stream; the program receives only
// the bytes it generates.
type inputs struct{ r *rand.Rand }

func newInputs(seed uint64, worker int) *inputs {
	return &inputs{rand.New(rand.NewPCG(seed, uint64(worker)+1))}
}

func (in *inputs) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := in.r.Uint64()
		for j := i; j < len(b) && j < i+8; j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// worker is one closed-loop client connection.
type worker struct {
	e    *env
	in   *inputs
	rec  *recorder // nil when untraced
	opts []protocol.Option
	msg  []byte

	ops      opLog
	failures []string
	kept     map[int]*aggInput // traced agg-b1 inputs by op index

	ses *protocol.Session // resume-p1

	// agg-b1: the worker's channel, owner keys on its own workspace, and
	// the open window's XOR and depth.
	conn   net.Conn
	client *agg.Client
	ws     *ringlwe.Workspace
	opk    *ringlwe.PublicKey
	osk    *ringlwe.PrivateKey
	token  [agg.TokenSize]byte
	stream uint64
	ct     *ringlwe.Ciphertext
	blob   []byte
	xor    []byte
	dec    []byte
	depth  uint64
}

func (w *worker) now() int64 { return int64(time.Since(w.e.origin)) }

// dial opens a loopback connection, timed and wrapped when traced.
func (w *worker) dial() (net.Conn, error) {
	if w.rec == nil {
		return net.Dial("tcp", w.e.addr)
	}
	t0 := w.rec.now()
	c, err := net.Dial("tcp", w.e.addr)
	if err != nil {
		return nil, err
	}
	w.rec.add(kDial, t0, w.rec.now(), portOf(c.LocalAddr()))
	return &timedConn{Conn: c, rec: w.rec}, nil
}

// timed runs f as a benchmark span of kind k when traced.
func (w *worker) timed(k kind, f func() error) error {
	if w.rec == nil {
		return f()
	}
	t0 := w.rec.now()
	err := f()
	w.rec.add(k, t0, w.rec.now(), 0)
	return err
}

// echoRecord sends one seeded record and checks the echo.
func (w *worker) echoRecord(ch *protocol.Channel) error {
	w.in.fill(w.msg)
	if err := ch.Send(w.msg); err != nil {
		return err
	}
	got, err := ch.Recv()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.msg) {
		return errors.New("echo mismatch")
	}
	return nil
}

func prepareHandshake(w *worker) error {
	var o opRec
	return handshakeOp(w, &o)
}

// handshakeOp dials, runs a full P1 KEM handshake without a ticket,
// echoes one record and closes.
func handshakeOp(w *worker, o *opRec) error {
	conn, err := w.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	ch, err := protocol.Client(conn, w.e.scheme, w.opts...)
	if err != nil {
		return err
	}
	o.attempts = uint8(1 + ch.Retries)
	return w.echoRecord(ch)
}

// prepareResume runs a full handshake that asks for a ticket.
func prepareResume(w *worker) error {
	conn, err := w.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	ch, err := protocol.Client(conn, w.e.scheme, append([]protocol.Option{protocol.WithSessionTicket()}, w.opts...)...)
	if err != nil {
		return err
	}
	if w.ses = ch.Session(); w.ses == nil {
		return errors.New("server issued no ticket")
	}
	return w.echoRecord(ch)
}

// resumeOp resumes with the ticket chained from the previous op, echoes
// one record and closes. A failed op starts a fresh ticket chain.
func resumeOp(w *worker, o *opRec) error {
	err := resumeOnce(w, o)
	if err != nil {
		if perr := prepareResume(w); perr != nil {
			return fmt.Errorf("%w (and re-handshake: %v)", err, perr)
		}
	}
	return err
}

func resumeOnce(w *worker, o *opRec) error {
	conn, err := w.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	var ch *protocol.Channel
	err = w.timed(kHello, func() error {
		ch, err = protocol.ClientResume(conn, w.ses, w.opts...)
		return err
	})
	if err != nil {
		return err
	}
	if ch.Resumed() {
		o.resumed = true
	} else {
		o.fellBack = true
		o.attempts = uint8(1 + ch.Retries)
	}
	if w.ses = ch.Session(); w.ses == nil {
		return errors.New("server reissued no ticket")
	}
	return w.echoRecord(ch)
}

// prepareAgg opens the worker's B1 channel, generates the owner keys on
// the worker's own Workspace and creates its stream.
func prepareAgg(w *worker) error {
	if w.conn != nil {
		w.conn.Close()
	}
	conn, err := w.dial()
	if err != nil {
		return err
	}
	w.conn = conn
	ch, err := protocol.Client(conn, w.e.scheme, w.opts...)
	if err != nil {
		return err
	}
	p := w.e.scheme.Params()
	w.client = agg.NewClient(ch)
	w.ws = w.e.scheme.NewWorkspace()
	if w.opk, w.osk, err = w.ws.GenerateKeys(); err != nil {
		return err
	}
	w.in.fill(w.token[:])
	if w.stream, err = w.client.CreateStream(w.token); err != nil {
		return err
	}
	w.ct = ringlwe.NewCiphertext(p)
	w.xor = make([]byte, p.MessageSize())
	w.dec = make([]byte, p.MessageSize())
	w.msg = make([]byte, p.MessageSize())
	w.depth = 0
	return nil
}

// aggOp encrypts one seeded message, marshals and submits it, and checks
// the returned depth. The op that fills the window queries the
// aggregate, decrypts it with the owner key, checks it against the
// window's XOR and addend count, and resets the stream.
func aggOp(w *worker, o *opRec) error {
	err := aggOnce(w, o)
	if err != nil {
		if perr := prepareAgg(w); perr != nil {
			return fmt.Errorf("%w (and re-setup: %v)", err, perr)
		}
	}
	return err
}

func aggOnce(w *worker, o *opRec) error {
	w.in.fill(w.msg)
	o.submit = true
	var in *aggInput
	if w.rec != nil {
		in = &aggInput{msg: bytes.Clone(w.msg)}
		w.kept[w.ops.n] = in
	}
	if err := w.ws.EncryptInto(w.ct, w.opk, w.msg); err != nil {
		return err
	}
	var err error
	if w.blob, err = w.ct.AppendBinary(w.blob[:0]); err != nil {
		return err
	}
	depth, err := w.client.Submit(w.stream, w.blob)
	if err != nil {
		return err
	}
	w.depth++
	for i, b := range w.msg {
		w.xor[i] ^= b
	}
	if depth != w.depth {
		return fmt.Errorf("submit returned depth %d, want %d", depth, w.depth)
	}
	if w.depth < aggWindow {
		return nil
	}
	o.query = true
	sum, err := w.client.Query(w.stream, w.token)
	if err != nil {
		return err
	}
	if in != nil {
		in.sum = sum
	}
	if sum.Addends() != aggWindow {
		return fmt.Errorf("aggregate has %d addends, want %d", sum.Addends(), aggWindow)
	}
	if err := w.ws.DecryptInto(w.dec, w.osk, sum); err != nil {
		return err
	}
	if !bytes.Equal(w.dec, w.xor) {
		return errors.New("aggregate does not decrypt to the window's XOR")
	}
	released, err := w.client.Reset(w.stream, w.token)
	if err != nil {
		return err
	}
	if released != aggWindow {
		return fmt.Errorf("reset released %d addends, want %d", released, aggWindow)
	}
	w.depth = 0
	clear(w.xor)
	return nil
}

// window is what one run of the workload measured.
type window struct {
	start    int64 // origin-relative ns
	wall     time.Duration
	ops      int
	failed   int
	failures []string
	logs     []*opLog
	from, to []int         // each log's op range in the window
	cpu      time.Duration // process CPU time over the window
	rss      float64       // peak RSS in MiB up to op rssAt
	rssAt    int64
	before   counters
	after    counters

	// Filled by runWithRuntime.
	allocBytes, allocs, gcPauseNs uint64
}

// run drives every worker in a closed loop for d and returns the window.
// Workers finish their op in flight, so every counted op is complete.
func (e *env) run(d time.Duration) *window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var done atomic.Int64
	win := &window{start: int64(time.Since(e.origin))}
	counted := func() {
		if n := done.Add(1); n == e.cfg.wl.rssOps {
			win.rss, win.rssAt = maxRSSMB(), n
		}
	}
	for _, w := range e.workers {
		win.logs = append(win.logs, &w.ops)
		win.from = append(win.from, w.ops.n)
	}
	win.before = e.counters()
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(&stop, counted)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	win.wall = time.Since(t0)
	win.cpu = cpuTime() - cpu0
	if win.rssAt == 0 {
		win.rss, win.rssAt = maxRSSMB(), done.Load()
	}
	win.after = e.counters()
	for _, w := range e.workers {
		win.to = append(win.to, w.ops.n)
		win.failures = append(win.failures, w.failures...)
		w.failures = nil
	}
	win.each(func(_, _ int, o *opRec) {
		win.ops++
		if o.failed {
			win.failed++
		}
	})
	return win
}

// runWithRuntime is run plus the Go runtime's allocation and GC-pause
// deltas over the window.
func (e *env) runWithRuntime(d time.Duration) *window {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win := e.run(d)
	runtime.ReadMemStats(&m1)
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	win.allocs = m1.Mallocs - m0.Mallocs
	win.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return win
}

// loop runs ops until stop is set, calling counted after each.
func (w *worker) loop(stop *atomic.Bool, counted func()) {
	for !stop.Load() {
		if w.rec != nil {
			w.rec.op = int32(w.ops.n)
		}
		o := opRec{start: w.now()}
		if err := w.e.cfg.wl.op(w, &o); err != nil {
			o.failed = true
			if len(w.failures) < 3 {
				w.failures = append(w.failures, err.Error())
			}
		}
		o.end = w.now()
		w.ops.add(o)
		counted()
	}
}

// each calls f with the worker index, op index and record of every op
// in the window.
func (win *window) each(f func(worker, op int, o *opRec)) {
	for w, l := range win.logs {
		for i := win.from[w]; i < win.to[w]; i++ {
			f(w, i, l.at(i))
		}
	}
}

// latencies returns every op's latency in microseconds.
func (win *window) latencies() []float64 {
	out := make([]float64, 0, win.ops)
	win.each(func(_, _ int, o *opRec) { out = append(out, float64(o.end-o.start)/1e3) })
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
