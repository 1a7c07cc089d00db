package main

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ringlwe"
	"ringlwe/internal/core"
	"ringlwe/internal/obs"
	"ringlwe/internal/ticket"
)

// ledgerMetric is one per-layer metric: every value is per e2e op.
// inSum marks the self times whose sum, plus unattributed_us, is the
// op's wall time. README.md maps each metric to the end-to-end metric
// and workload a change to its layer should move.
type ledgerMetric struct {
	name, unit, better string
	inSum              bool
}

var ledgerMetrics = []ledgerMetric{
	{"core.pack_us", "us", "lower", true},
	{"core.unpack_us", "us", "lower", true},
	{"core.wire_bytes", "bytes", "lower", false},
	{"sampler.samples", "count", "lower", false},
	{"sampler.us", "us", "lower", true},
	{"ntt.forward_us", "us", "lower", true},
	{"ntt.inverse_us", "us", "lower", true},
	{"ntt.pointwise_us", "us", "lower", true},
	{"ntt.calls", "count", "lower", false},
	{"core.encode_us", "us", "lower", true},
	{"core.decode_us", "us", "lower", true},
	{"rns.crt_us", "us", "lower", true},
	{"ringlwe.encapsulate_us", "us", "lower", false},
	{"ringlwe.decapsulate_us", "us", "lower", false},
	{"ringlwe.kem_self_us", "us", "lower", true},
	{"protocol.hello_us", "us", "lower", true},
	{"protocol.kem_flight_us", "us", "lower", true},
	{"protocol.record_us", "us", "lower", true},
	{"protocol.ticket_issue_us", "us", "lower", true},
	{"protocol.ticket_open_us", "us", "lower", true},
	{"protocol.decap_batch_mean", "count", "higher", false},
	{"protocol.kem_retries", "count", "lower", false},
	{"protocol.ticket_fallback_frac", "fraction", "lower", false},
	{"ticket.seal_us", "us", "lower", true},
	{"ticket.open_us", "us", "lower", true},
	{"agg.fold_us", "us", "lower", true},
	{"agg.reject_frac", "fraction", "lower", false},
	{"io.dial_us", "us", "lower", true},
	{"io.read_wait_us", "us", "lower", true},
	{"io.write_us", "us", "lower", true},
	{"io.bytes", "bytes", "lower", false},
	{"runtime.alloc_bytes", "bytes", "lower", false},
	{"runtime.allocs", "count", "lower", false},
	{"runtime.gc_pause_us", "us", "lower", false},
	{"unattributed_us", "us", "lower", true},
	{"trace_overhead_frac", "fraction", "lower", false},
}

// maxReplay bounds how many traced ops the ledger replays.
const maxReplay = 400

// counters is a reading of the program's own hooks: sampler statistics
// and the server's metrics registry.
type counters struct {
	samples     uint64
	batch       obs.HistogramSnapshot
	retries     uint64
	fallbacks   uint64
	fold        obs.HistogramSnapshot
	aggRejects  uint64
	aggRequests uint64
}

func (e *env) counters() counters {
	reg := e.srv.Metrics()
	pl := obs.Labels{"params": e.srvScheme.Params().Name()}
	n := e.srv.NumShards()
	var c counters
	c.samples, _, _, _ = e.scheme.SamplerStats()
	s, _, _, _ := e.srvScheme.SamplerStats()
	c.samples += s
	c.batch = reg.Histogram("rlwe_decap_batch_size", "", nil, n).Snapshot()
	c.retries = reg.Counter("rlwe_kem_retries_total", "", pl, n).Value()
	c.fallbacks = reg.Counter("rlwe_ticket_fallbacks_total", "", pl, n).Value()
	if e.eng != nil {
		c.fold = reg.Histogram("rlwe_agg_fold_duration_us", "", pl, n).Snapshot()
		c.aggRejects = reg.Counter("rlwe_agg_rejects_total", "", pl, n).Value()
		for _, name := range []string{"rlwe_agg_submits_total", "rlwe_agg_queries_total", "rlwe_agg_resets_total"} {
			c.aggRequests += reg.Counter(name, "", pl, n).Value()
		}
		c.aggRequests += c.aggRejects
	}
	return c
}

// timeline is the self and inclusive time per span kind of a set of
// goroutine timelines, plus the I/O bytes they moved.
type timeline struct {
	self, total [numKinds]int64
	bytes       int64
}

// ioSkew shifts I/O spans' starts when nesting them. A protocol phase's
// start is its end minus the duration the hook reports, taken a few
// hundred nanoseconds late, so the phase's first read can appear to
// start just before it.
const ioSkew = 500

// add nests one goroutine's spans (from start on) and accumulates them:
// every span's self time is its duration minus its direct children's.
// It sorts spans in place.
func (tl *timeline) add(spans []span, from int64) {
	key := func(s *span) int64 {
		if k := s.kind(); k == kRead || k == kWrite {
			return s.start + ioSkew
		}
		return s.start
	}
	slices.SortStableFunc(spans, func(a, b span) int {
		if ka, kb := key(&a), key(&b); ka != kb {
			return cmp.Compare(ka, kb)
		}
		return cmp.Compare(b.end, a.end)
	})
	var stack []*span
	for i := range spans {
		s := &spans[i]
		if s.start < from {
			continue
		}
		k := s.kind()
		if k == kRead || k == kWrite {
			tl.bytes += int64(s.n())
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if key(s) >= key(top) && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		d := s.end - s.start
		tl.total[k] += d
		tl.self[k] += d
		if len(stack) > 0 {
			tl.self[stack[len(stack)-1].kind()] -= d
		}
		stack = append(stack, s)
	}
}

// busyNs is a server connection's time between reads from start on: the
// time the server worked on what the client waits for.
func busyNs(spans []span, from int64) int64 {
	var busy int64
	last := int64(-1)
	for _, s := range spans {
		if s.kind() != kRead || s.start < from {
			continue
		}
		if last >= 0 {
			busy += s.start - last
		}
		last = s.end
	}
	return busy
}

// selfTime is a layer's self time over the window and the time of the
// replayed or server-side spans subtracted from its own to get it.
type selfTime struct{ ns, subtracted float64 }

// selfTolerance is how far below zero a self time may fall, as a share
// of what was subtracted from it, before the ledger reports it. Replays
// run after the window on a machine whose speed drifts, so a self time
// near zero can come out slightly negative; a recipe that drifts from
// the code (a call replayed twice, a layer the code no longer calls)
// misses by far more.
const selfTolerance = 0.25

// ledger is the computed per-layer breakdown of a traced window.
type ledger struct {
	values   map[string]float64
	replayed int
	calls    []string
	problems []string
}

var callNames = [numCalls]string{"write-pk", "parse-pk", "encapsulate", "decapsulate", "ticket-open", "ticket-seal",
	"encrypt", "marshal", "parse-ct", "marshal-agg", "parse-agg", "decrypt"}

// buildLedger computes the ledger of traced window tw of env e, with the
// untraced window base for the runtime metrics and the tracing overhead.
func buildLedger(cfg config, e *env, tw, base *window) (*ledger, error) {
	led := &ledger{values: make(map[string]float64)}
	ops := tw.ops
	if ops == 0 || base.ops == 0 {
		return nil, fmt.Errorf("%s: no completed ops to attribute", cfg.wl.name)
	}
	perOp := func(v float64) float64 { return v / float64(ops) }
	us := func(ns float64) float64 { return perOp(ns) / 1e3 }

	type traced struct {
		o  *opRec
		in *aggInput
	}
	var wall, baseWall int64
	var real [numCalls]int
	var wantBytes int64
	var all []traced
	p := e.scheme.Params()
	tw.each(func(w, i int, o *opRec) {
		all = append(all, traced{o, e.workers[w].kept[i]})
		wall += o.end - o.start
		wantBytes += wireBytes(p, o)
		countCalls(&real, o)
	})
	// The overhead compares like with like: the untraced ops that started
	// as long after their window opened as the traced window lasted.
	var baseOps int
	base.each(func(_, _ int, o *opRec) {
		if o.start-base.start < int64(tw.wall) {
			baseWall += o.end - o.start
			baseOps++
		}
	})

	var client, server timeline
	for _, w := range e.workers {
		client.add(w.rec.spans, tw.start)
	}
	if e.st.unjoined > 0 {
		led.problems = append(led.problems, fmt.Sprintf("%d server connections could not be joined to their spans", e.st.unjoined))
	}
	conns := e.st.served()
	if n := assignOps(conns, e.workers, tw.start); n > 0 {
		led.problems = append(led.problems, fmt.Sprintf("%d server spans served no client op", n))
	}
	var busy int64
	for _, c := range conns {
		server.add(c.spans, tw.start)
		busy += busyNs(c.spans, tw.start)
	}

	// Replay every stride-th op's layer calls.
	ownerPK, ownerSK := e.srvPK, e.srvSK
	if w := e.workers[0]; w.opk != nil {
		ownerPK, ownerSK = w.opk, w.osk
	}
	cp := core.P1()
	if p.IsRNS() {
		cp = core.B1()
	}
	r, err := newReplayer(cp, e.scheme, ownerPK, ownerSK)
	if err != nil {
		return nil, err
	}
	stride := max(1, (len(all)+maxReplay-1)/maxReplay)
	for i := 0; i < len(all); i += stride {
		if err := r.replayOp(all[i].o, all[i].in); err != nil {
			return nil, fmt.Errorf("replaying op %d: %w", i, err)
		}
		led.replayed++
	}
	// Query ops are one in aggWindow: replay the rest of them too, up to
	// the cap.
	for i, t := range all {
		if i%stride != 0 && t.in != nil && t.in.sum != nil && r.acc[cDecrypt].n < maxReplay {
			if err := r.query(t.in.sum); err != nil {
				return nil, err
			}
		}
	}

	// Scale each call's replays up to the run's real number of calls.
	var layerNs [numLayers]float64
	var parentNs [numCalls]float64
	var kemSelf, kemChildren, samples, nttCalls, codecBytes float64
	for c := call(0); c < numCalls; c++ {
		a := &r.acc[c]
		if real[c] == 0 {
			continue
		}
		if a.n == 0 {
			led.problems = append(led.problems, fmt.Sprintf("%s ran %d times but was never replayed", callNames[c], real[c]))
			continue
		}
		calls := float64(real[c])
		var children float64
		for l, ns := range a.childNs {
			v := medianNs(ns) * calls
			layerNs[l] += v
			children += v
		}
		parentNs[c] = medianNs(a.parentNs) * calls
		if c == cTicketOpen || c == cTicketSeal {
			parentNs[c] = children // the ticket layer is called directly
		} else {
			kemSelf += parentNs[c] - children
			kemChildren += children
		}
		led.calls = append(led.calls, fmt.Sprintf("%-12s %6d replayed  parent %10.3f us  children %10.3f us per call (medians)",
			callNames[c], a.n, parentNs[c]/calls/1e3, children/calls/1e3))
		if a.samples%uint64(a.n) != 0 {
			led.problems = append(led.problems, fmt.Sprintf("%s drew a varying number of samples", callNames[c]))
		}
		samples += float64(a.samples/uint64(a.n)) * float64(real[c])
		nttCalls += float64(a.nttCalls) / float64(a.n) * calls
		codecBytes += float64(a.bytes) / float64(a.n) * calls
	}

	// Self times, nanoseconds over the window.
	kem := parentNs[cEncap] + parentNs[cWritePK] + parentNs[cDecap]
	self := map[string]selfTime{
		"core.pack_us":             {layerNs[lPack], 0},
		"core.unpack_us":           {layerNs[lUnpack], 0},
		"sampler.us":               {layerNs[lSampler], 0},
		"ntt.forward_us":           {layerNs[lForward], 0},
		"ntt.inverse_us":           {layerNs[lInverse], 0},
		"ntt.pointwise_us":         {layerNs[lPointwise], 0},
		"core.encode_us":           {layerNs[lEncode], 0},
		"core.decode_us":           {layerNs[lDecode], 0},
		"rns.crt_us":               {layerNs[lCRT], 0},
		"ringlwe.kem_self_us":      {kemSelf, kemChildren},
		"protocol.hello_us":        {float64(client.self[kHello]+server.self[kHello]) - parentNs[cParsePK], parentNs[cParsePK]},
		"protocol.kem_flight_us":   {float64(client.self[kKEMFlight]+server.self[kKEMFlight]) - kem, kem},
		"protocol.record_us":       {float64(client.self[kRecord] + server.self[kRecord]), 0},
		"protocol.ticket_issue_us": {float64(server.self[kTicketIssue]) - layerNs[lTicketSeal], layerNs[lTicketSeal]},
		"protocol.ticket_open_us":  {float64(server.self[kTicketOpen]) - layerNs[lTicketOpen], layerNs[lTicketOpen]},
		"ticket.seal_us":           {layerNs[lTicketSeal], 0},
		"ticket.open_us":           {layerNs[lTicketOpen], 0},
		"agg.fold_us":              {float64(tw.after.fold.Sum-tw.before.fold.Sum) * 1e3, 0},
		"io.dial_us":               {float64(client.total[kDial]), 0},
		"io.read_wait_us":          {float64(client.total[kRead] - busy), float64(busy)},
		"io.write_us":              {float64(client.total[kWrite] + server.total[kWrite]), 0},
	}
	attributed := 0.0
	for _, m := range ledgerMetrics {
		if st, ok := self[m.name]; ok {
			led.values[m.name] = us(st.ns)
			attributed += st.ns
			if st.ns < -selfTolerance*st.subtracted {
				led.problems = append(led.problems, fmt.Sprintf("%s self time is negative (%.3f us per op after subtracting %.3f us)",
					m.name, us(st.ns), us(st.subtracted)))
			}
		}
	}
	led.values["unattributed_us"] = us(float64(wall) - attributed)

	before, after := tw.before, tw.after
	realSamples := after.samples - before.samples
	if uint64(samples) != realSamples {
		led.problems = append(led.problems, fmt.Sprintf("replayed calls draw %d samples, the run drew %d", uint64(samples), realSamples))
	}
	if client.bytes != wantBytes {
		led.problems = append(led.problems, fmt.Sprintf("the run moved %d bytes, the params' wire sizes add up to %d", client.bytes, wantBytes))
	}
	retries := after.retries - before.retries
	if want := uint64(real[cEncap] - real[cParsePK]); retries != want {
		led.problems = append(led.problems, fmt.Sprintf("server counted %d KEM retries, clients %d", retries, want))
	}

	led.values["core.wire_bytes"] = perOp(codecBytes)
	led.values["sampler.samples"] = perOp(float64(realSamples))
	led.values["ntt.calls"] = perOp(nttCalls)
	led.values["ringlwe.encapsulate_us"] = us(parentNs[cEncap])
	led.values["ringlwe.decapsulate_us"] = us(parentNs[cDecap])
	if n := after.batch.Count - before.batch.Count; n > 0 {
		led.values["protocol.decap_batch_mean"] = float64(after.batch.Sum-before.batch.Sum) / float64(n)
	}
	led.values["protocol.kem_retries"] = perOp(float64(retries))
	if real[cTicketOpen] > 0 {
		led.values["protocol.ticket_fallback_frac"] = float64(after.fallbacks-before.fallbacks) / float64(real[cTicketOpen])
	}
	if n := after.aggRequests - before.aggRequests; n > 0 {
		led.values["agg.reject_frac"] = float64(after.aggRejects-before.aggRejects) / float64(n)
	}
	led.values["io.bytes"] = perOp(float64(client.bytes))
	bo := float64(base.ops)
	led.values["runtime.alloc_bytes"] = float64(base.allocBytes) / bo
	led.values["runtime.allocs"] = float64(base.allocs) / bo
	led.values["runtime.gc_pause_us"] = float64(base.gcPauseNs) / bo / 1e3
	led.values["trace_overhead_frac"] = (float64(wall)/float64(ops))/(float64(baseWall)/float64(max(baseOps, 1))) - 1
	led.values["op_us"] = us(float64(wall))
	return led, nil
}

// medianNs is the median of per-call nanoseconds.
func medianNs(ns []int64) float64 {
	v := make([]float64, len(ns))
	for i, x := range ns {
		v[i] = float64(x)
	}
	return median(v)
}

// countCalls adds the public calls op o made to real.
func countCalls(real *[numCalls]int, o *opRec) {
	switch {
	case o.submit:
		real[cEncrypt]++
		real[cMarshal]++
		real[cParseCT]++
		if o.query {
			real[cMarshalAgg]++
			real[cParseAgg]++
			real[cDecrypt]++
		}
		return
	case o.resumed:
		real[cTicketOpen]++
		real[cTicketSeal]++
		return
	}
	if o.attempts > 0 {
		real[cWritePK]++
		real[cParsePK]++
		real[cEncap] += int(o.attempts)
		real[cDecap] += int(o.attempts)
	}
}

// Protocol framing around the lattice objects, in bytes.
const (
	helloLen     = 8            // v2 hello
	statusLen    = 1            // status byte
	wireHdrLen   = 6            // self-describing blob header
	randomLen    = 16           // resumption freshness contribution
	recordHdrLen = 5            // record type and length
	recordTagLen = 16           // record MAC
	ticketHdrLen = 2 + 8        // ticket blob length and expiry
	aggCountLen  = 8            // aggregate addend count
	aggIDLen     = 8            // stream ID, depth or released count
	aggTokenLen  = 16           // owner token
	aggOpLen     = 1            // request op or response status
	resumeHello  = helloLen + 2 // hello plus ticket length
)

// wireBytes is what op o puts on the wire in both directions, from the
// parameter set's reported object sizes and the protocol framing.
func wireBytes(p *ringlwe.Params, o *opRec) int64 {
	record := func(n int) int { return recordHdrLen + n + recordTagLen }
	pkBlob := wireHdrLen + p.PublicKeySize() - 1
	ekBlob := wireHdrLen + p.EncapsulationSize()
	ctBlob := wireHdrLen + p.CiphertextSize() - 1
	ticketBlob := ticketHdrLen + ticket.TicketLen
	kem := pkBlob + int(o.attempts)*(ekBlob+statusLen)
	echo := 2 * record(echoSize)
	var n int
	switch {
	case o.submit:
		n = record(aggOpLen+aggIDLen+ctBlob) + record(aggOpLen+aggIDLen)
		if o.query {
			auth := record(aggOpLen + aggIDLen + aggTokenLen)
			n += auth + record(aggOpLen+wireHdrLen+aggCountLen+p.CiphertextSize()-1)
			n += auth + record(aggOpLen+aggIDLen)
		}
	case o.resumed:
		n = resumeHello + ticket.TicketLen + randomLen + statusLen + randomLen + ticketBlob + echo
	case o.fellBack:
		n = resumeHello + ticket.TicketLen + randomLen + statusLen + kem + ticketBlob + echo
	default:
		n = helloLen + statusLen + kem + echo
	}
	return int64(n)
}

// table renders the ledger for standard error.
func (led *ledger) table(workload string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s (per op; * = self time in the sum; op %.3f us over %d replayed ops)\n", workload, led.values["op_us"], led.replayed)
	for _, m := range ledgerMetrics {
		mark := " "
		if m.inSum {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s %-30s %14.3f %s\n", mark, m.name, led.values[m.name], m.unit)
	}
	for _, c := range led.calls {
		fmt.Fprintf(&b, "    %s\n", c)
	}
	for _, p := range led.problems {
		fmt.Fprintf(&b, "  PROBLEM: %s\n", p)
	}
	return b.String()
}
