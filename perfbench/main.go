// Command perfbench is the repository's end-to-end benchmark. It drives
// one seeded, closed-loop workload against an in-process protocol server
// over loopback TCP, checks every output, and prints the result as one
// JSON line:
//
//	go run . --workload handshake-p1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (throughput,
// latency, CPU per op, success fraction, peak RSS, set-up time). With
// --trace 1 the run is split in two windows with the same workload and
// seed — one untraced, one with the protocol tracer hooks and a timing
// net.Conn wrapper on — and the metrics are the per-layer ledger (see
// README.md). The benchmark only measures from outside: it times calls
// into each module's public functions and reads the hooks the program
// already has; it adds no spans inside the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets the workload up;
// setup_s is the median, the last set-up serves the measured window.
const setupRepeats = 21

// warmup runs the workload unmeasured after set-up, so lazily built
// tables, pools and the heap reach steady state before timing.
const warmup = 500 * time.Millisecond

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := config{wl: wl, seed: *seed, workers: runtime.GOMAXPROCS(0)}
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *trace == 0 {
		res, err = measureE2E(cfg, dur)
	} else {
		res, err = measureLedger(cfg, dur)
	}
	if err != nil {
		return err
	}
	facts, _ := json.Marshal(res.facts)
	fmt.Printf("facts %s\n", facts)
	out, err := json.Marshal(res.line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// e2eMetrics are the end-to-end metrics of a --trace 0 run. A failed op
// is an error, an echo mismatch, a wrong depth or addend count, or an
// aggregate that does not decrypt to its window's XOR; success_frac is
// one minus the failed fraction, so that it is never zero.
var e2eMetrics = []struct{ name, unit, better string }{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"success_frac", "fraction", "higher"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	line  resultLine
	facts map[string]any
}

// measureE2E sets the workload up setupRepeats times (setup_s is the
// median), warms it up and measures one untraced window.
func measureE2E(cfg config, dur time.Duration) (result, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		e, took, err = setup(cfg, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer e.close()
	e.run(warmup)
	w := e.run(dur)

	lat := w.latencies()
	slices.Sort(lat)
	ops := float64(max(w.ops, 1))
	values := map[string]float64{
		"throughput_ops_s": float64(w.ops) / w.wall.Seconds(),
		"latency_p50_us":   quantile(lat, 0.50),
		"latency_p99_us":   quantile(lat, 0.99),
		"cpu_us_per_op":    float64(w.cpu) / 1e3 / ops,
		"success_frac":     1 - float64(w.failed)/ops,
		"max_rss_mb":       w.rss,
		"setup_s":          median(setups),
	}
	m := make(map[string]metric, len(e2eMetrics))
	for _, em := range e2eMetrics {
		m[em.name] = metric{values[em.name], em.unit}
	}
	f := runFacts(cfg, e)
	f["latency_samples"] = len(lat)
	f["latency_samples_above_p99"] = len(lat) - int(float64(len(lat))*0.99)
	f["setup_samples"] = len(setups)
	f["failed_frac"] = float64(w.failed) / ops
	f["measured_s"] = w.wall.Seconds()
	f["setup_first_s"] = setups[0]
	f["max_rss_read_at_op"] = w.rssAt
	if len(w.failures) > 0 {
		f["first_failures"] = w.failures
	}
	return result{
		line:  resultLine{Correct: w.failed == 0, Attempted: w.ops, Failed: w.failed, Metrics: m},
		facts: f,
	}, nil
}

// maxTraced caps the traced window, so that its spans stay small in
// memory; the untraced window takes the rest of --seconds.
const maxTraced = 5 * time.Second

// measureLedger runs an untraced and a traced window on fresh set-ups,
// replays the traced ops' layer calls, and reports the ledger together
// with the tracing overhead between the windows.
func measureLedger(cfg config, dur time.Duration) (result, error) {
	tracedDur := min(dur/2, maxTraced)

	plain, _, err := setup(cfg, false)
	if err != nil {
		return result{}, err
	}
	plain.run(warmup)
	base := plain.runWithRuntime(dur - tracedDur)
	plain.close()
	debug.FreeOSMemory() // the traced window's spans need not stack on the untraced heap

	traced, _, err := setup(cfg, true)
	if err != nil {
		return result{}, err
	}
	traced.run(warmup)
	tw := traced.run(tracedDur)
	traced.close()

	led, err := buildLedger(cfg, traced, tw, base)
	if err != nil {
		return result{}, err
	}
	fmt.Fprint(os.Stderr, led.table(cfg.wl.name))

	m := make(map[string]metric, len(ledgerMetrics))
	for _, lm := range ledgerMetrics {
		m[lm.name] = metric{led.values[lm.name], lm.unit}
	}
	f := runFacts(cfg, traced)
	f["traced_ops"] = tw.ops
	f["untraced_ops"] = base.ops
	f["replayed_ops"] = led.replayed
	f["max_rss_mb"] = maxRSSMB()
	if len(led.problems) > 0 {
		f["ledger_problems"] = led.problems
	}
	failed := tw.failed + base.failed
	ops := tw.ops + base.ops
	return result{
		line: resultLine{
			Correct:   failed == 0 && len(led.problems) == 0,
			Attempted: ops,
			Failed:    failed,
			Metrics:   m,
		},
		facts: f,
	}, nil
}

// runFacts describes the machine and load shape behind a result.
func runFacts(cfg config, e *env) map[string]any {
	return map[string]any{
		"workload":           cfg.wl.name,
		"seed":               cfg.seed,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"cpu_model":          cpuModel(),
		"go_version":         runtime.Version(),
		"client_connections": cfg.workers,
		"server_shards":      e.srv.NumShards(),
		"transport":          "loopback",
		"loop":               "closed",
		"engine":             e.scheme.Engine(),
		"sampler":            e.scheme.Sampler(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture when it is not available.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// median of a sample (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
