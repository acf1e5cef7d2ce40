package main

import (
	"fmt"
	"time"

	"spinal"
	"spinal/internal/constellation"
	"spinal/internal/core"
	"spinal/internal/sim"
)

// The codec workload: one goroutine runs a closed loop of
// spinal.Code.TransmitOver at the facade's defaults (striped schedule,
// AttemptAdaptive, B=16, exact float64 metric, Workers = GOMAXPROCS) with
// the genie verifier, over a fresh spinal.NewImpairmentPipeline AWGN
// channel per message. The traced run repeats TransmitOver's loop through
// the public core calls so each core layer gets its own span.

// codecSizes is the message-size mix in bytes: 24-bit messages (the
// spinalsim -exp spinal point) outnumber 64-bit ones 7:1, which keeps
// enough messages in a run for a p99 while the 64-bit decodes still take
// most of the time.
var codecSizes = []sim.SizeClass{{Bytes: 3, Weight: 7}, {Bytes: 8, Weight: 1}}

var codecSNRs = []float64{5, 15, 25}

// codecDeck is how many messages the inputs hold; a run that outlasts them
// starts over from the first.
const codecDeck = 4096

// symbolsPerFrame converts codec symbols into link-frame equivalents, at
// link.Config's default SymbolsPerFrame, for frames_per_s and
// allocs_per_frame.
const symbolsPerFrame = 48

type codecMsg struct {
	bits    int
	payload []byte
	spec    string
	noise   uint64
}

// codecOutcome is what one transmission reported; the traced driver must
// reproduce it exactly.
type codecOutcome struct {
	ok       bool
	symbols  int
	attempts int
}

type codecBench struct {
	seed  uint64
	codes map[int]*spinal.Code
	msgs  []codecMsg
}

func codecInputs(seed uint64) ([]codecMsg, error) {
	decks, err := flowInputs(seed, 1, codecDeck, codecSizes)
	if err != nil {
		return nil, err
	}
	// SNRs cycle within each size class from a seeded phase, so every class
	// sees the three SNRs in equal shares.
	next := map[int]int{}
	msgs := make([]codecMsg, len(decks[0]))
	for i, in := range decks[0] {
		bits := len(in.payload) * 8
		k := next[bits] + int(seed%3)
		next[bits]++
		msgs[i] = codecMsg{
			bits:    bits,
			payload: in.payload,
			spec:    fmt.Sprintf("awgn(snr=%g)", codecSNRs[k%len(codecSNRs)]),
			noise:   in.seed ^ 0x6a09e667f3bcc909,
		}
	}
	return msgs, nil
}

// setupCodec builds the codes and inputs.
func setupCodec(seed uint64) (*codecBench, error) {
	b := &codecBench{seed: seed, codes: map[int]*spinal.Code{}}
	for _, sc := range codecSizes {
		code, err := spinal.NewCode(spinal.Config{MessageBits: sc.Bytes * 8})
		if err != nil {
			return nil, err
		}
		b.codes[sc.Bytes*8] = code
	}
	msgs, err := codecInputs(seed)
	if err != nil {
		return nil, err
	}
	b.msgs = msgs
	return b, nil
}

// warmUp runs one message per code at 15 dB, so lazy set-up is paid before
// timing.
func (b *codecBench) warmUp() error {
	for bits, code := range b.codes {
		warm := codecMsg{bits: bits, payload: spinal.RandomMessage(bits, b.seed), spec: "awgn(snr=15)", noise: 1}
		if out, err := b.transmit(code, warm); err != nil || !out.ok {
			return fmt.Errorf("codec warm-up failed: %v", err)
		}
	}
	return nil
}

// transmit is one untraced TransmitOver call. The verifier is the genie
// comparison with a counter: TransmitOver calls it once per decode attempt.
func (b *codecBench) transmit(code *spinal.Code, m codecMsg) (codecOutcome, error) {
	ch, err := spinal.NewImpairmentPipeline(m.spec, m.noise)
	if err != nil {
		return codecOutcome{}, err
	}
	attempts := 0
	verify := func(d []byte) bool {
		attempts++
		return code.Equal(d, m.payload)
	}
	res, err := code.TransmitOver(m.payload, ch, verify, 0)
	if err != nil {
		return codecOutcome{}, err
	}
	ok := res.Delivered && code.Equal(res.Decoded, m.payload)
	return codecOutcome{ok: ok, symbols: res.Symbols, attempts: attempts}, nil
}

// codecCounts is the traced driver's per-layer ledger.
type codecCounts struct {
	msgs, delivered, attempts int64
	symbols, nodes, refreshed int64
}

// transmitTraced repeats TransmitOver's loop (core.RunChannelSession with
// the facade's session config) through public core calls, with a span
// around each call into a core layer and into the channel.
func (b *codecBench) transmitTraced(t *tracer, code *spinal.Code, m codecMsg, cnt *codecCounts) (codecOutcome, error) {
	cfg := code.Config()
	mapper, err := constellation.ByName(cfg.Mapper, cfg.C)
	if err != nil {
		return codecOutcome{}, err
	}
	params := core.Params{K: cfg.K, C: cfg.C, MessageBits: cfg.MessageBits, Seed: cfg.Seed, Mapper: mapper}
	nseg := params.NumSegments()
	var sched core.Schedule
	if cfg.Sequential {
		sched, err = core.NewSequentialSchedule(nseg)
	} else {
		sched, err = core.NewStripedSchedule(nseg, 8) // the facade's stride
	}
	if err != nil {
		return codecOutcome{}, err
	}
	ch, err := spinal.NewImpairmentPipeline(m.spec, m.noise)
	if err != nil {
		return codecOutcome{}, err
	}

	sess := t.begin(layerSession, kindCall, nil)
	defer sess.end(1)
	enc, err := core.NewEncoder(params, m.payload)
	if err != nil {
		return codecOutcome{}, err
	}
	dec, err := core.NewBeamDecoder(params, cfg.BeamWidth)
	if err != nil {
		return codecOutcome{}, err
	}
	defer dec.Close()
	if err := dec.SetCostMetric(cfg.CostMetric); err != nil {
		return codecOutcome{}, err
	}
	if err := dec.SetSearchConfig(cfg.Search); err != nil {
		return codecOutcome{}, err
	}
	dec.SetIncremental(true)
	dec.SetParallelism(cfg.Workers)
	obs, err := core.NewObservations(nseg)
	if err != nil {
		return codecOutcome{}, err
	}

	policy := core.AttemptAdaptive{}
	maxSymbols := 400 * nseg
	minUses := (params.MessageBits + 2*params.C - 1) / (2 * params.C)
	var poss []core.SymbolPos
	var tx, rx []complex128
	out := codecOutcome{}
	cnt.msgs++
	for sent := 0; sent < maxSymbols; {
		// The next attempt point, as core.RunChannelSession finds it.
		stop, attempt := sent, false
		for stop < maxSymbols && !attempt {
			stop++
			attempt = stop >= minUses && policy.ShouldAttempt(stop, nseg)
		}
		if n := stop - sent; n > 0 {
			if cap(poss) < n {
				poss = make([]core.SymbolPos, n)
				tx = make([]complex128, n)
				rx = make([]complex128, n)
			}
			poss, tx, rx = poss[:n], tx[:n], rx[:n]
			core.PositionsInto(sched, sent, poss)
			s := t.begin(layerEncode, kindCall, &sess)
			err := enc.EncodeBatch(tx, poss)
			s.end(n)
			if err != nil {
				return out, err
			}
			s = t.begin(layerImpair, kindCall, &sess)
			ch.CorruptBlock(rx, tx)
			s.end(n)
			s = t.begin(layerObserve, kindCall, &sess)
			err = obs.AddBatch(poss, rx)
			s.end(n)
			if err != nil {
				return out, err
			}
			cnt.symbols += int64(n)
			sent = stop
		}
		if !attempt {
			break
		}
		s := t.begin(layerDecode, kindCall, &sess)
		res, err := dec.Decode(obs)
		if err != nil {
			s.end(0)
			return out, err
		}
		s.end(1)
		out.attempts++
		cnt.attempts++
		cnt.nodes += int64(res.NodesExpanded)
		cnt.refreshed += int64(res.NodesRefreshed)
		if core.EqualMessages(res.Message, m.payload, params.MessageBits) {
			out.ok = true
			out.symbols = sent
			cnt.delivered++
			return out, nil
		}
	}
	out.symbols = maxSymbols
	return out, nil
}

// runCodec measures the codec workload untraced and, with rc.trace, reruns
// the same messages through the traced core driver, which must reproduce
// every message's outcome exactly.
func runCodec(rc runConfig) (*report, error) {
	b, setupS, err := timedSetup(func() (*codecBench, error) { return setupCodec(rc.seed) }, nil)
	if err == nil {
		err = b.warmUp()
	}
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.e2e.setupS = setupS
	untraced := b.measure(&rep.e2e, rc.seconds, -1, nil)
	if !rc.trace {
		return rep, nil
	}

	t := newTracer()
	var cnt codecCounts
	traced := &totals{}
	outs := b.measure(traced, 0, len(untraced), func(code *spinal.Code, m codecMsg) (codecOutcome, error) {
		return b.transmitTraced(t, code, m, &cnt)
	})
	rep.traced = traced
	for i := range untraced {
		if outs[i] != untraced[i] {
			rep.fail("codec: traced driver diverged from TransmitOver on message %d: traced %+v, untraced %+v",
				i, outs[i], untraced[i])
			break
		}
	}
	rep.tracer = t
	rep.layers = codecLayers(t, &cnt)
	return rep, nil
}

// measure runs the closed loop for the given duration (count < 0) or over
// exactly count messages, filling the ledger. A nil send uses TransmitOver.
func (b *codecBench) measure(tot *totals, seconds float64, count int,
	send func(*spinal.Code, codecMsg) (codecOutcome, error)) []codecOutcome {
	if send == nil {
		send = b.transmit
	}
	var outs []codecOutcome
	deadline := time.Duration(seconds * float64(time.Second))
	tot.clients = 1
	m := startMeter()
	for i := 0; count < 0 || i < count; i++ {
		if count < 0 && time.Since(m.start.wall) >= deadline {
			break
		}
		msg := b.msgs[i%len(b.msgs)]
		t0 := time.Now()
		out, err := send(b.codes[msg.bits], msg)
		end := time.Now()
		tot.attempted++
		c := completion{at: end, latMs: float64(end.Sub(t0)) / 1e6, frames: float64(out.symbols) / symbolsPerFrame}
		if err != nil || !out.ok {
			tot.failed++
		} else {
			tot.delivered++
			c.bits = int64(msg.bits)
		}
		tot.bits += c.bits
		tot.frames += c.frames
		tot.symbols += int64(out.symbols)
		tot.done = append(tot.done, c)
		outs = append(outs, out)
	}
	m.finish(tot)
	return outs
}

func codecLayers(t *tracer, c *codecCounts) map[string]float64 {
	m := zeroLayers()
	sess := t.layerTotals(layerSession)
	enc := t.layerTotals(layerEncode)
	obs := t.layerTotals(layerObserve)
	dec := t.layerTotals(layerDecode)
	imp := t.layerTotals(layerImpair)
	m["core.session.attempts_per_msg"] = ratio(c.attempts, c.msgs)
	m["core.session.attempt_yield"] = ratio(c.delivered, c.attempts)
	m["core.encode.ns_per_sym"] = ratio(enc.total, enc.items)
	m["core.observe.ns_per_sym"] = ratio(obs.total, obs.items)
	m["core.decode.ms_per_attempt"] = ratio(dec.total, dec.spans) / 1e6
	m["core.decode.nodes_per_attempt"] = ratio(c.nodes, c.attempts)
	m["core.decode.refreshed_per_attempt"] = ratio(c.refreshed, c.attempts)
	m["core.decode.ns_per_node"] = ratio(dec.total, c.nodes)
	m["core.decode.self_share"] = ratio(dec.self, sess.total)
	m["impair.ns_per_sym"] = ratio(imp.total, imp.items)
	addSelfTimes(m, t, c.msgs)
	return m
}
