package protocol

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ringlwe"
)

// startEchoServer serves an echo handler on a loopback listener and
// returns the server with its address.
func startEchoServer(t testing.TB, srv *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
}

func echoHandler(ch *Channel) {
	for {
		m, err := ch.Recv()
		if err != nil {
			return
		}
		if err := ch.Send(m); err != nil {
			return
		}
	}
}

// TestServerMixedParamsConcurrent is the acceptance-criteria test: one
// Server on one port completes concurrent handshakes with P1 clients, P2
// clients (both negotiated from the self-describing public-key header)
// and ClientAuto clients, with traffic flowing on every channel. Run
// under -race in CI.
func TestServerMixedParamsConcurrent(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1(), ringlwe.P2())
	srv.handler = echoHandler
	addr, stop := startEchoServer(t, srv)

	type flavor struct {
		label string
		dial  func(net.Conn) (*Channel, error)
		want  string // expected negotiated params
	}
	flavors := []flavor{
		{"P1v2", func(c net.Conn) (*Channel, error) {
			return Client(c, ringlwe.NewDeterministic(ringlwe.P1(), 6001), WithRekeyAfter(2))
		}, "P1"},
		{"P2v2", func(c net.Conn) (*Channel, error) {
			return Client(c, ringlwe.NewDeterministic(ringlwe.P2(), 6002))
		}, "P2"},
		{"auto", func(c net.Conn) (*Channel, error) {
			return ClientAuto(c)
		}, "P1"},
	}

	const perFlavor = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(flavors)*perFlavor)
	for _, f := range flavors {
		for i := 0; i < perFlavor; i++ {
			wg.Add(1)
			go func(f flavor, i int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errs <- err
					return
				}
				defer conn.Close()
				ch, err := f.dial(conn)
				if err != nil {
					errs <- fmt.Errorf("%s[%d]: %w", f.label, i, err)
					return
				}
				if ch.Params().Name() != f.want {
					errs <- fmt.Errorf("%s[%d]: negotiated %s, want %s", f.label, i, ch.Params().Name(), f.want)
					return
				}
				for round := 0; round < 5; round++ {
					msg := []byte(fmt.Sprintf("%s-%d-%d", f.label, i, round))
					if err := ch.Send(msg); err != nil {
						errs <- fmt.Errorf("%s[%d] send: %w", f.label, i, err)
						return
					}
					back, err := ch.Recv()
					if err != nil {
						errs <- fmt.Errorf("%s[%d] recv: %w", f.label, i, err)
						return
					}
					if string(back) != string(msg) {
						errs <- fmt.Errorf("%s[%d]: echoed %q", f.label, i, back)
						return
					}
				}
			}(f, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stop()

	st := srv.Stats()
	// P1v2 + auto hit P1; P2v2 hits P2.
	if got := st.PerParams["P1"].Handshakes; got != 2*perFlavor {
		t.Errorf("P1 handshakes %d, want %d", got, 2*perFlavor)
	}
	if got := st.PerParams["P2"].Handshakes; got != perFlavor {
		t.Errorf("P2 handshakes %d, want %d", got, perFlavor)
	}
	// The P1v2 flavor rekeys every 2 records over 10 records per channel.
	if got := st.PerParams["P1"].Rekeys; got == 0 {
		t.Error("no rekeys recorded for P1 despite WithRekeyAfter clients")
	}
	for name, c := range st.PerParams {
		if c.ActiveChannels != 0 {
			t.Errorf("%s: %d channels still active after shutdown", name, c.ActiveChannels)
		}
	}
}

// TestServerAddParamsCTREntropy drives the AddParams convenience path
// (per-scheme AES-CTR DRBG entropy) through a real handshake.
func TestServerAddParamsCTREntropy(t *testing.T) {
	srv := NewServer(WithHandler(echoHandler))
	if err := srv.AddParams(ringlwe.P1()); err != nil {
		t.Fatal(err)
	}
	addr, stop := startEchoServer(t, srv)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := Client(conn, ringlwe.New(ringlwe.P1()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("ctr")); err != nil {
		t.Fatal(err)
	}
	if m, err := ch.Recv(); err != nil || string(m) != "ctr" {
		t.Fatalf("echo: %q %v", m, err)
	}
}

func TestServerTenantErrors(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	// Duplicate set.
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 6101)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(scheme, pk, sk); err == nil {
		t.Error("duplicate tenant accepted")
	}
	// Unregistered custom set.
	custom, err := ringlwe.Custom("tiny", 128, 12289, 1131, 100)
	if err != nil {
		t.Fatal(err)
	}
	cScheme := ringlwe.NewDeterministic(custom, 6102)
	cpk, csk, err := cScheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(cScheme, cpk, csk); err == nil {
		t.Error("unregistered custom set accepted")
	}
	// Cross-params key pair.
	p2scheme := ringlwe.NewDeterministic(ringlwe.P2(), 6103)
	p2pk, p2sk, err := p2scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(scheme, p2pk, p2sk); err == nil {
		t.Error("cross-params key pair accepted")
	}
}

// TestServerStatsJSON pins the expvar-style contract: Stats.String is
// valid JSON carrying the per-params counters.
func TestServerStatsJSON(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1(), ringlwe.P2())
	s := srv.Stats().String()
	var decoded struct {
		Rejected  uint64                      `json:"rejected_hellos"`
		PerParams map[string]map[string]int64 `json:"per_params"`
	}
	if err := json.Unmarshal([]byte(s), &decoded); err != nil {
		t.Fatalf("Stats.String is not JSON: %v\n%s", err, s)
	}
	if len(decoded.PerParams) != 2 {
		t.Fatalf("stats cover %d sets, want 2: %s", len(decoded.PerParams), s)
	}
	for _, name := range []string{"P1", "P2"} {
		if _, ok := decoded.PerParams[name]; !ok {
			t.Errorf("stats missing %s: %s", name, s)
		}
	}
}

// TestServerShutdownForcesConnections pins the two-stage shutdown: with a
// handler parked in Recv, Shutdown waits for the context, then
// force-closes the connection and still unwinds cleanly.
func TestServerShutdownForcesConnections(t *testing.T) {
	started := make(chan struct{})
	srv := newTestServer(t, ringlwe.P1())
	srv.handler = func(ch *Channel) {
		close(started)
		ch.Recv() // parked until the connection is force-closed
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Client(conn, ringlwe.NewDeterministic(ringlwe.P1(), 6201)); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("Shutdown returned %v, want deadline exceeded", err)
	}
	if sErr := <-serveDone; sErr != ErrServerClosed {
		t.Errorf("Serve returned %v", sErr)
	}
	if got := srv.Stats().PerParams["P1"].ActiveChannels; got != 0 {
		t.Errorf("%d channels active after forced shutdown", got)
	}
}
