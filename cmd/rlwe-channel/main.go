// Command rlwe-channel runs the post-quantum secure channel from the
// command line: a multi-tenant server that answers with an echo service,
// and a client that sends lines to it — a minimal netcat-style tool over
// the ring-LWE KEM handshake.
//
// The server holds one scheme and long-term key pair per parameter set
// and serves negotiating clients of any of them on one port; handshakes run on pooled per-goroutine workspaces fed by a
// per-scheme AES-CTR DRBG. On SIGINT/SIGTERM it shuts down gracefully and
// prints the per-params counter snapshot.
//
//	rlwe-channel serve   -addr 127.0.0.1:9999 -params P1,P2
//	rlwe-channel serve   -addr 127.0.0.1:9999 -debug-addr 127.0.0.1:9998 -log
//	rlwe-channel connect -addr 127.0.0.1:9999 -params P2 -msg "hello"
//	rlwe-channel connect -addr 127.0.0.1:9999 -rekey 2 -count 8
//
// -debug-addr serves the opt-in admin endpoint (Prometheus /metrics,
// expvar-style /debug/vars, net/http/pprof) on its own listener — bind
// it to loopback or an otherwise access-controlled address. -log emits
// structured slog lines (accept backoff, handshake failures with their
// classified reason, ticket fallbacks) to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ringlwe"
	"ringlwe/internal/protocol"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen/connect address")
	paramsList := fs.String("params", "", "parameter sets (serve: comma list, default P1,P2; connect: one, default = server's choice)")
	rekey := fs.Uint64("rekey", 0, "rekey after this many records (connect mode; 0 = never)")
	msg := fs.String("msg", "ping", "message to send (connect mode)")
	count := fs.Int("count", 3, "how many messages to send (connect mode)")
	once := fs.Bool("once", false, "serve a single connection and exit")
	debugAddr := fs.String("debug-addr", "", "serve the debug/metrics endpoint on this address (serve mode; empty = disabled)")
	structured := fs.Bool("log", false, "structured slog logging to stderr (serve mode)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}

	switch cmd {
	case "serve":
		if *paramsList == "" {
			*paramsList = "P1,P2"
		}
		serve(*addr, parseParamsList(*paramsList), *once, *debugAddr, *structured)
	case "connect":
		connect(*addr, strings.TrimSpace(*paramsList), *rekey, *msg, *count)
	default:
		usage()
	}
}

func parseParamsList(list string) []*ringlwe.Params {
	var out []*ringlwe.Params
	for _, name := range strings.Split(list, ",") {
		switch strings.ToUpper(strings.TrimSpace(name)) {
		case "P1":
			out = append(out, ringlwe.P1())
		case "P2":
			out = append(out, ringlwe.P2())
		case "":
		default:
			fatal(fmt.Errorf("unknown parameter set %q", name))
		}
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("no parameter sets in %q", list))
	}
	return out
}

// paramsByName resolves exactly one parameter-set name (connect mode).
func paramsByName(name string) *ringlwe.Params {
	sets := parseParamsList(name)
	if len(sets) != 1 {
		fatal(fmt.Errorf("connect takes one parameter set, got %q", name))
	}
	return sets[0]
}

func serve(addr string, params []*ringlwe.Params, once bool, debugAddr string, structured bool) {
	logOpt := protocol.WithLogf(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if structured {
		logOpt = protocol.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	srv := protocol.NewServer(protocol.WithHandler(echo), logOpt)
	for _, p := range params {
		if err := srv.AddParams(p); err != nil {
			fatal(err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	var names []string
	for _, p := range srv.ParamsServed() {
		names = append(names, fmt.Sprintf("%s (%d B public key)", p.Name(), p.PublicKeySize()))
	}
	fmt.Printf("listening on %s, serving %s\n", ln.Addr(), strings.Join(names, ", "))

	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			fatal(fmt.Errorf("debug listener: %w", err))
		}
		fmt.Printf("debug endpoint on http://%s/ (/metrics, /debug/vars, /debug/pprof/)\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, srv.DebugHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "rlwe-channel: debug endpoint:", err)
			}
		}()
	}

	if once {
		conn, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		ln.Close()
		ch, err := srv.Handshake(conn)
		if err != nil {
			fatal(err)
		}
		report(ch, conn)
		echo(ch)
		conn.Close()
		fmt.Println(srv.Stats())
		return
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, give active
	// channels a grace period, then report the per-params counters.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		fmt.Printf("\n%v: shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
		}
		fmt.Println("stats:", srv.Stats())
	}
}

// echo is the per-channel handler: echo every record back with a prefix.
func echo(ch *protocol.Channel) {
	for {
		m, err := ch.Recv()
		if err != nil {
			return
		}
		if err := ch.Send(append([]byte("echo: "), m...)); err != nil {
			return
		}
	}
}

func report(ch *protocol.Channel, conn net.Conn) {
	fmt.Printf("channel with %s established (%s, %d KEM retries)\n",
		conn.RemoteAddr(), ch.Params().Name(), ch.Retries)
}

func connect(addr, paramsName string, rekey uint64, msg string, count int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()

	var ch *protocol.Channel
	if paramsName == "" {
		// No set named: negotiate the server's default from the header of
		// its self-describing public-key blob.
		ch, err = protocol.ClientAuto(conn, protocol.WithRekeyAfter(rekey))
	} else {
		ch, err = protocol.Client(conn, ringlwe.New(paramsByName(paramsName)),
			protocol.WithRekeyAfter(rekey))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("connected to %s over a %s channel\n", addr, ch.Params().Name())
	for i := 0; i < count; i++ {
		line := fmt.Sprintf("%s #%d", msg, i+1)
		if err := ch.Send([]byte(line)); err != nil {
			fatal(err)
		}
		reply, err := ch.Recv()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %q → %q\n", line, reply)
	}
	if ch.Rekeys > 0 {
		fmt.Printf("session rekeyed %d times\n", ch.Rekeys)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlwe-channel:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rlwe-channel serve   -addr HOST:PORT [-params P1,P2] [-once]
                       [-debug-addr HOST:PORT] [-log]
  rlwe-channel connect -addr HOST:PORT [-params P1|P2]
                       [-rekey N] [-msg TEXT] [-count N]

serve answers negotiating clients on one port, one tenant per -params
entry (default P1,P2). -debug-addr additionally
serves Prometheus /metrics, /debug/vars and pprof on its own listener;
-log switches stderr reporting to structured slog lines. connect
without -params negotiates the server's default set from its public-key
header.`)
	os.Exit(2)
}
