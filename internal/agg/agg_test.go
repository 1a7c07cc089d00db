package agg

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"ringlwe"
	"ringlwe/internal/obs"
	"ringlwe/internal/protocol"
)

// testServer starts an instrumented aggregation server on loopback and
// returns its address, the engine's registry, and the owner's key
// material. The channel tenant's KEM keys are the server's own; the data
// keys (what devices encrypt samples under, what the owner decrypts
// with) are generated here and never shown to the server.
func testServer(t *testing.T, p *ringlwe.Params, shards int) (addr string, reg *obs.Registry) {
	t.Helper()
	eng := New(shards)
	srv := protocol.NewServer(
		protocol.WithHandler(eng.Handle),
		protocol.WithShards(shards),
	)
	eng.Instrument(srv.Metrics())
	if err := srv.AddParams(p); err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.ServeListeners()
		close(done)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return a.String(), srv.Metrics()
}

// dial establishes one aggregation client over a fresh channel.
func dial(t *testing.T, addr string, scheme *ringlwe.Scheme) (*Client, func()) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := protocol.Client(conn, scheme)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return NewClient(ch), func() { conn.Close() }
}

// TestAggEndToEnd is the service-level correctness check: devices encrypt
// samples under the owner's public key, submit them over secure channels
// (including one device-side pre-fold as a kind-5 blob), and the
// aggregate the owner queries back decrypts to the XOR of every sample —
// while the serving path only ever saw ciphertexts.
func TestAggEndToEnd(t *testing.T) {
	p := ringlwe.A1()
	addr, reg := testServer(t, p, 2)
	scheme := ringlwe.NewDeterministic(p, 501)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}

	owner, closeOwner := dial(t, addr, scheme)
	defer closeOwner()
	token := [TokenSize]byte{1, 2, 3, 4}
	id, err := owner.CreateStream(token)
	if err != nil {
		t.Fatal(err)
	}

	// Four samples: three submitted fresh, two of them from a second
	// device connection, plus a device-side pre-fold of two more — six
	// addends total, far inside A1's budget.
	const samples = 6
	msgs := make([][]byte, samples)
	cts := make([]*ringlwe.Ciphertext, samples)
	want := make([]byte, p.MessageSize())
	for i := range msgs {
		msgs[i] = make([]byte, p.MessageSize())
		for j := range msgs[i] {
			msgs[i][j] = byte(53*i + j)
		}
		if cts[i], err = scheme.Encrypt(pk, msgs[i]); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			want[j] ^= msgs[i][j]
		}
	}

	device, closeDevice := dial(t, addr, scheme)
	defer closeDevice()
	for i, c := range []*Client{owner, device, device, owner} {
		depth, err := c.SubmitCiphertext(id, cts[i])
		if err != nil {
			t.Fatal(err)
		}
		if depth != uint64(i+1) {
			t.Fatalf("submit %d: depth = %d, want %d", i, depth, i+1)
		}
	}
	// Device-side pre-fold: two samples folded locally, shipped as one
	// kind-5 aggregate carrying its addend count.
	pre := ringlwe.NewCiphertext(p)
	if err := scheme.AggregateInto(pre, cts[4:]); err != nil {
		t.Fatal(err)
	}
	blob, err := ringlwe.Aggregate{Ciphertext: pre}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	depth, err := device.Submit(id, blob)
	if err != nil {
		t.Fatal(err)
	}
	if depth != samples {
		t.Fatalf("pre-fold depth = %d, want %d", depth, samples)
	}

	agg, err := owner.Query(id, token)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Addends() != samples {
		t.Fatalf("queried aggregate carries %d addends, want %d", agg.Addends(), samples)
	}
	got, err := scheme.Decrypt(sk, agg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("aggregate does not decrypt to the XOR of the submitted samples")
	}

	// The instrumented series saw it all.
	lab := obs.Labels{"params": p.Name()}
	if v := reg.Counter("rlwe_agg_submits_total", "", lab, 1).Value(); v != 5 {
		t.Errorf("rlwe_agg_submits_total = %d, want 5", v)
	}
	if v := reg.Counter("rlwe_agg_streams_total", "", lab, 1).Value(); v != 1 {
		t.Errorf("rlwe_agg_streams_total = %d, want 1", v)
	}
	if v := reg.Counter("rlwe_agg_queries_total", "", lab, 1).Value(); v != 1 {
		t.Errorf("rlwe_agg_queries_total = %d, want 1", v)
	}
	if v := reg.Gauge("rlwe_agg_accumulator_depth", "", lab, 1).Value(); v != samples {
		t.Errorf("rlwe_agg_accumulator_depth = %d, want %d", v, samples)
	}
	if h := reg.Histogram("rlwe_agg_fold_duration_us", "", lab, 1).Snapshot(); h.Count != 5 {
		t.Errorf("rlwe_agg_fold_duration_us count = %d, want 5", h.Count)
	}
}

// TestAggBudgetAndReset drives a stream to its noise budget: the fold
// past MaxAddends is refused with ringlwe.ErrNoiseBudget and leaves the
// accumulator untouched, Reset releases the window, and the stream then
// accepts submissions again.
func TestAggBudgetAndReset(t *testing.T) {
	p := ringlwe.A1()
	addr, reg := testServer(t, p, 1)
	scheme := ringlwe.NewDeterministic(p, 502)
	pk, _, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := scheme.Encrypt(pk, make([]byte, p.MessageSize()))
	if err != nil {
		t.Fatal(err)
	}

	c, closeC := dial(t, addr, scheme)
	defer closeC()
	token := [TokenSize]byte{9}
	id, err := c.CreateStream(token)
	if err != nil {
		t.Fatal(err)
	}
	max := uint64(p.MaxAddends())
	for i := uint64(0); i < max; i++ {
		if _, err := c.SubmitCiphertext(id, ct); err != nil {
			t.Fatalf("submit %d/%d: %v", i+1, max, err)
		}
	}
	if _, err := c.SubmitCiphertext(id, ct); !errors.Is(err, ringlwe.ErrNoiseBudget) {
		t.Fatalf("over-budget submit: err = %v, want ErrNoiseBudget", err)
	}
	// The refusal left the window intact and queryable.
	agg, err := c.Query(id, token)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Addends() != max {
		t.Fatalf("post-refusal aggregate carries %d addends, want %d", agg.Addends(), max)
	}
	released, err := c.Reset(id, token)
	if err != nil {
		t.Fatal(err)
	}
	if released != max {
		t.Fatalf("reset released %d addends, want %d", released, max)
	}
	lab := obs.Labels{"params": p.Name()}
	if v := reg.Gauge("rlwe_agg_accumulator_depth", "", lab, 1).Value(); v != 0 {
		t.Fatalf("depth gauge after reset = %d, want 0", v)
	}
	if depth, err := c.SubmitCiphertext(id, ct); err != nil || depth != 1 {
		t.Fatalf("post-reset submit: depth=%d err=%v, want 1, nil", depth, err)
	}
	if v := reg.Counter("rlwe_agg_rejects_total", "", lab, 1).Value(); v != 1 {
		t.Fatalf("rlwe_agg_rejects_total = %d, want 1", v)
	}
}

// TestAggAuthAndRejects covers the refusal surface: wrong owner tokens,
// unknown streams, garbage submissions, and cross-parameter-set blobs
// each map to their own status and client-side sentinel.
func TestAggAuthAndRejects(t *testing.T) {
	p := ringlwe.A1()
	addr, _ := testServer(t, p, 1)
	scheme := ringlwe.NewDeterministic(p, 503)
	pk, _, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	c, closeC := dial(t, addr, scheme)
	defer closeC()
	token := [TokenSize]byte{7}
	id, err := c.CreateStream(token)
	if err != nil {
		t.Fatal(err)
	}

	wrong := [TokenSize]byte{8}
	if _, err := c.Query(id, wrong); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong-token query: err = %v, want ErrAuth", err)
	}
	if _, err := c.Reset(id, wrong); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong-token reset: err = %v, want ErrAuth", err)
	}
	if _, err := c.Query(id+100, token); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("unknown-stream query: err = %v, want ErrUnknownStream", err)
	}
	ct, err := scheme.Encrypt(pk, make([]byte, p.MessageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCiphertext(id+100, ct); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("unknown-stream submit: err = %v, want ErrUnknownStream", err)
	}
	if _, err := c.Submit(id, []byte{0xDE, 0xAD}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("garbage submit: err = %v, want ErrMalformed", err)
	}
	// A public-key blob is valid wire but the wrong kind.
	pkBlob, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(id, pkBlob); !errors.Is(err, ErrMalformed) {
		t.Fatalf("kind-confused submit: err = %v, want ErrMalformed", err)
	}
	// A P1 ciphertext over an A1 channel: refused as a params mismatch,
	// never folded into an A1 accumulator.
	other := ringlwe.NewDeterministic(ringlwe.P1(), 504)
	opk, _, err := other.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	oct, err := other.Encrypt(opk, make([]byte, ringlwe.P1().MessageSize()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCiphertext(id, oct); !errors.Is(err, ringlwe.ErrParamsMismatch) {
		t.Fatalf("cross-set submit: err = %v, want ErrParamsMismatch", err)
	}
	// An over-budget kind-5 blob is refused at parse (anti-smuggling).
	agg, err := c.Query(id, token)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ringlwe.Aggregate{Ciphertext: agg}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[6] = 0xFF // addend count far past any budget
	if _, err := c.Submit(id, blob); !errors.Is(err, ringlwe.ErrNoiseBudget) {
		t.Fatalf("over-budget blob submit: err = %v, want ErrNoiseBudget", err)
	}
}

// TestAggConcurrentStreams hammers one sharded engine from many device
// connections under -race: every device owns a private stream and all of
// them interleave submissions into one shared stream; each aggregate
// still decrypts to the XOR of exactly its stream's samples. Each device
// encrypts on its own Workspace: the scheme's one-shot methods are not
// safe for concurrent use.
func TestAggConcurrentStreams(t *testing.T) {
	p := ringlwe.A1()
	addr, _ := testServer(t, p, 4)
	scheme := ringlwe.NewDeterministic(p, 505)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}

	owner, closeOwner := dial(t, addr, scheme)
	defer closeOwner()
	token := [TokenSize]byte{42}
	sharedID, err := owner.CreateStream(token)
	if err != nil {
		t.Fatal(err)
	}

	const devices = 4
	const perDevice = 1 // one shared-stream sample each: depth 4, failure ~1e-9
	sharedWant := make([]byte, p.MessageSize())
	sharedMsgs := make([][]byte, devices)
	privateWant := make([][]byte, devices)
	var mu sync.Mutex
	privateIDs := make([]uint64, devices)

	msgFor := func(dev, i, j int) byte { return byte(101*dev + 11*i + j) }
	for d := 0; d < devices; d++ {
		sharedMsgs[d] = make([]byte, p.MessageSize())
		for j := range sharedMsgs[d] {
			sharedMsgs[d][j] = msgFor(d, 0, j)
		}
		for j := range sharedWant {
			sharedWant[j] ^= sharedMsgs[d][j]
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			ws := scheme.NewWorkspace()
			c, closeC := dial(t, addr, scheme)
			defer closeC()
			// Private stream: four samples, strict XOR checked below.
			id, err := c.CreateStream(token)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			privateIDs[d] = id
			mu.Unlock()
			want := make([]byte, p.MessageSize())
			for i := 0; i < 4; i++ {
				msg := make([]byte, p.MessageSize())
				for j := range msg {
					msg[j] = msgFor(d, i+1, j)
				}
				for j := range want {
					want[j] ^= msg[j]
				}
				ct, err := ws.Encrypt(pk, msg)
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.SubmitCiphertext(id, ct); err != nil {
					errs <- err
					return
				}
			}
			mu.Lock()
			privateWant[d] = want
			mu.Unlock()
			// Shared stream: this device's contribution.
			for i := 0; i < perDevice; i++ {
				ct, err := ws.Encrypt(pk, sharedMsgs[d])
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.SubmitCiphertext(sharedID, ct); err != nil {
					errs <- err
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	check := func(id uint64, wantDepth uint64, want []byte, what string) {
		agg, err := owner.Query(id, token)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if agg.Addends() != wantDepth {
			t.Fatalf("%s: %d addends, want %d", what, agg.Addends(), wantDepth)
		}
		got, err := scheme.Decrypt(sk, agg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: aggregate does not decrypt to the XOR of its samples", what)
		}
	}
	check(sharedID, devices*perDevice, sharedWant, "shared stream")
	for d := 0; d < devices; d++ {
		check(privateIDs[d], 4, privateWant[d], "private stream")
	}
}
