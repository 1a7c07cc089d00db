package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json these tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark reports, with the same units and
// directions, and that README.md maps every per-layer metric.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	var e2e []metricSpec
	for _, m := range e2eMetrics {
		e2e = append(e2e, metricSpec{Name: m.name, Unit: m.unit, Better: m.better})
	}
	var layers []metricSpec
	for _, m := range ledgerMetrics {
		layers = append(layers, metricSpec{Name: m.name, Unit: m.unit, Better: m.better})
	}
	strip := func(ms []metricSpec) []metricSpec {
		out := slices.Clone(ms)
		for i := range out {
			out[i].Bound = 0
		}
		return out
	}
	if got := strip(bj.EndToEnd); !slices.Equal(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbenchmark reports\n%v", got, e2e)
	}
	if !slices.Equal(bj.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbenchmark reports\n%v", bj.PerLayer, layers)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ledgerMetrics {
		if !bytes.Contains(readme, []byte("`"+m.name+"`")) {
			t.Errorf("README.md does not map %s", m.name)
		}
	}
}

// TestInputStreamSeeded checks that a seed fixes every worker's input
// stream and that seeds and workers get different streams.
func TestInputStreamSeeded(t *testing.T) {
	stream := func(seed uint64, worker int) []byte {
		in := newInputs(seed, worker)
		out := make([]byte, 0, 4096)
		for _, n := range []int{16, echoSize, 128, 128, echoSize, 7} {
			b := make([]byte, n)
			in.fill(b)
			out = append(out, b...)
		}
		return out
	}
	if !bytes.Equal(stream(7, 0), stream(7, 0)) {
		t.Error("seed 7 gave two different input streams")
	}
	if bytes.Equal(stream(7, 0), stream(8, 0)) {
		t.Error("seeds 7 and 8 gave the same input stream")
	}
	if bytes.Equal(stream(7, 0), stream(7, 1)) {
		t.Error("workers 0 and 1 got the same input stream")
	}
}

// TestWorkloads runs every workload briefly in both modes with a fixed
// seed and checks that no op fails, the ledger's self-checks hold, and
// every metric is reported with its unit.
func TestWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	units := func(ms []metricSpec) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2eUnits, layerUnits := units(bj.EndToEnd), units(bj.PerLayer)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{wl: workloads[name], seed: 11, workers: runtime.GOMAXPROCS(0)}
			e2e, err := measureE2E(cfg, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "trace 0", e2e, e2eUnits)
			led, err := measureLedger(cfg, 600*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "trace 1", led, layerUnits)
		})
	}
}

func checkResult(t *testing.T, mode string, res result, units map[string]string) {
	t.Helper()
	l := res.line
	if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d facts=%v", mode, l.Correct, l.Attempted, l.Failed, res.facts)
	}
	if len(l.Metrics) != len(units) {
		t.Errorf("%s: %d metrics reported, want %d", mode, len(l.Metrics), len(units))
	}
	for name, unit := range units {
		m, ok := l.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", mode, name, m, unit)
		}
	}
}
