package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spinal/internal/channel"
	"spinal/internal/link"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// All link-layer traffic crosses the host's loopback interface between UDP
// sockets of this one process; no radio is involved (the receiver simulates
// one with its impairment).
const loopback = "127.0.0.1"

// msgKey is the receiver's demux key (FlowID, MsgID).
func msgKey(flow, msg uint32) uint64 { return uint64(flow)<<32 | uint64(msg) }

// delivery is one packet the receiver handed back. It holds no pointers,
// so the collector does not scan the map of every delivery of a run.
type delivery struct {
	intact  bool // the payload is exactly what was sent
	bits    int
	symbols int
	nodes   int64
	at      time.Duration // when Receive returned it, since epoch
}

// rxSide is the receiving end the link and wire workloads share: one UDP
// socket, one link.Receiver over it, and the goroutine driving Receive —
// the only goroutine that calls Receive and EngineStats, as the receiver
// requires.
type rxSide struct {
	sock   *link.UDP
	tr     link.Transport // what the receiver reads from: sock, or its wrapper
	recv   *link.Receiver
	t      *tracer
	ttr    *tracedTransport // receive-side transport wrapper when traced
	tch    *tracedChannel   // impairment wrapper when traced and impaired
	expect func(flow, msg uint32) []byte

	stopping atomic.Bool
	want     atomic.Int64 // deliveries to wait for once stopping
	done     chan struct{}

	// Owned by the loop goroutine until done is closed.
	got        map[uint64]delivery
	wrong      int // deliveries whose payload differs from what was sent
	unexpected int // deliveries of messages never sent
	err        error
	trackedMax int
	final      link.EngineStats
}

func newRxSide(cfg link.Config, rad radio, t *tracer, expect func(flow, msg uint32) []byte) (*rxSide, error) {
	sock, err := link.NewUDP(loopback+":0", "")
	if err != nil {
		return nil, err
	}
	r := &rxSide{sock: sock, t: t, expect: expect, done: make(chan struct{}), got: map[uint64]delivery{}}
	r.tr = sock
	var ch channel.SymbolChannel // nil without an impairment
	if rad != nil {
		ch = rad
	}
	if t != nil {
		r.ttr = traceTransport(sock, t, kindSendAck, kindRecvData)
		r.tr = r.ttr
		if rad != nil {
			r.tch = &tracedChannel{inner: rad, t: t}
			ch = r.tch
		}
	}
	r.recv, err = link.NewReceiver(r.tr, cfg, ch)
	if err != nil {
		sock.Close()
		return nil, err
	}
	go r.loop()
	return r, nil
}

func (r *rxSide) addr() string { return r.sock.LocalAddr().String() }

// batchedIngest reports whether the receiver's transport offers the batched
// per-peer ingest path (link.BatchPacketTransport), traced or not.
func (r *rxSide) batchedIngest() bool {
	_, ok := r.tr.(link.BatchPacketTransport)
	return ok
}

func (r *rxSide) loop() {
	defer close(r.done)
	var rs span // the open Receive span; transport and impairment spans nest in it
	if r.ttr != nil {
		r.ttr.parent = &rs
	}
	if r.tch != nil {
		r.tch.parent = &rs
	}
	var stopAt time.Time
	for {
		if r.stopping.Load() {
			if stopAt.IsZero() {
				stopAt = time.Now()
			}
			// Senders are done: drain what they were told was delivered,
			// but never wait more than a few seconds for it.
			if int64(len(r.got)) >= r.want.Load() || time.Since(stopAt) > 3*time.Second {
				break
			}
		}
		rs = r.t.begin(layerReceiver, kindCall, nil)
		d, err := r.recv.Receive(20 * time.Millisecond)
		rs.end(1)
		if r.t != nil {
			if n := r.recv.EngineStats().TrackedMessages; n > r.trackedMax {
				r.trackedMax = n
			}
		}
		if errors.Is(err, link.ErrTimeout) {
			continue
		}
		if err != nil {
			r.err = err
			break
		}
		r.record(d)
	}
	r.final = r.recv.EngineStats()
}

func (r *rxSide) record(d *link.Delivered) {
	key := msgKey(d.FlowID, d.MsgID)
	if _, seen := r.got[key]; seen {
		return // at-least-once: a retransmission outlived the delivered state
	}
	want := r.expect(d.FlowID, d.MsgID)
	dv := delivery{intact: want != nil && bytes.Equal(want, d.Payload), bits: 8 * len(d.Payload),
		symbols: d.Symbols, at: time.Since(epoch)}
	switch {
	case want == nil:
		r.unexpected++
	case !dv.intact:
		r.wrong++
	}
	if r.t != nil {
		dv.nodes = r.recv.FlowNodesExpanded(d.FlowID, d.MsgID)
	}
	r.got[key] = dv
}

// finish waits until want packets in all have been delivered (or a short
// grace period passes), stops the loop and waits for it to exit.
func (r *rxSide) finish(want int) {
	r.want.Store(int64(want))
	r.stopping.Store(true)
	<-r.done
}

// close stops the receive loop if it still runs and releases the receiver
// and its socket.
func (r *rxSide) close() {
	r.finish(0)
	_ = r.recv.Close() // only reports engine shutdown, which cannot fail here
	_ = r.sock.Close() // the socket was only read from and written to
}

// failures counts deliveries the loop found wrong, and the loop's error.
func (r *rxSide) failures() int {
	n := r.wrong + r.unexpected
	if r.err != nil {
		n++
	}
	return n
}

// The link workload: two link.Sender flows at spinalsend's configuration,
// each on its own UDP socket, send 32-byte payloads back to back (a closed
// loop) to one link.Receiver at spinalrecv's defaults: B=16, 15 dB AWGN
// through a 14-bit ADC, DecodeWorkers = GOMAXPROCS, pooled decoders.

const linkFlows = 2

// linkSizes is the payload mix. 128-byte chunks are left out: each decodes
// about 40 times longer than a 32-byte payload and stalls the other flow's
// messages behind it, which made the latency percentiles bimodal (p90
// between 42 and 457 ms across five seeds with one chunk in sixteen).
var linkSizes = []sim.SizeClass{{Bytes: 32, Weight: 1}}

// linkDeck is how many messages the inputs hold across both flows.
const linkDeck = 4096

type linkBench struct {
	decks   [][]input
	rx      *rxSide
	socks   []*link.UDP
	senders []*link.Sender
	tts     []*tracedTransport
}

func setupLink(seed uint64, t *tracer) (*linkBench, error) {
	decks, err := flowInputs(seed, linkFlows, linkDeck, linkSizes)
	if err != nil {
		return nil, err
	}
	b := &linkBench{decks: decks}
	radio, err := channel.NewQuantizedAWGN(15, 14, rng.New(seed^0x3c6ef372fe94f82b))
	if err != nil {
		return nil, err
	}
	b.rx, err = newRxSide(link.Config{BeamWidth: 16}, radio, t, b.expect)
	if err != nil {
		return nil, err
	}
	for f := 0; f < linkFlows; f++ {
		sock, err := link.NewUDP(loopback+":0", b.rx.addr())
		if err != nil {
			b.close()
			return nil, err
		}
		b.socks = append(b.socks, sock)
		var tr link.Transport = sock
		if t != nil {
			tt := traceTransport(sock, t, kindSendData, kindRecvAck)
			tr = tt
			b.tts = append(b.tts, tt)
		}
		// spinalsend's configuration.
		s, err := link.NewSender(tr, link.Config{MaxPasses: 60, AckPoll: 2 * time.Millisecond, FlowID: uint32(f + 1)})
		if err != nil {
			b.close()
			return nil, err
		}
		b.senders = append(b.senders, s)
	}
	return b, nil
}

// warmUp has every flow send its first message, so the decoder pool is
// warm before timing.
func (b *linkBench) warmUp() error {
	return eachOf(linkFlows, func(f int) error {
		rep, err := b.senders[f].Send(1, b.expect(uint32(f+1), 1))
		if err == nil && !rep.Acked {
			err = fmt.Errorf("link warm-up message of flow %d not acknowledged", f+1)
		}
		return err
	})
}

// expect is the payload of message msg of a flow, or nil for one never
// sent. A flow that outlasts its deck starts over from its first payload,
// with fresh message ids.
func (b *linkBench) expect(flow, msg uint32) []byte {
	if flow < 1 || int(flow) > len(b.decks) || msg == 0 {
		return nil
	}
	deck := b.decks[flow-1]
	return deck[int(msg-1)%len(deck)].payload
}

// eachOf runs fn(0..n-1) on their own goroutines and waits for all.
func eachOf(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *linkBench) close() {
	for _, s := range b.socks {
		_ = s.Close() // sockets were only used for datagrams; nothing to flush
	}
	if b.rx != nil {
		b.rx.close()
	}
}

// sendLog is one flow's record of a measured run.
type sendLog struct {
	ops       int // operations run: messages on link, bursts on wire
	sent      int // messages sent
	acked     []uint32
	failed    int
	done      []completion
	symbols   int64
	frames    int64
	ignored   int64
	returned  map[uint32]time.Duration // when the sender learned of each ack, since epoch (traced runs)
	symbolsOf map[uint32]int           // symbols sent per acked message (traced runs)
}

func newSendLog() *sendLog {
	return &sendLog{returned: map[uint32]time.Duration{}, symbolsOf: map[uint32]int{}}
}

// stopAt reports whether a flow's closed loop is done: after the duration
// when count is nil, else after count[f] operations.
func stopAt(start time.Time, seconds float64, count []int, f, ops int) bool {
	if count == nil {
		return time.Since(start) >= time.Duration(seconds*float64(time.Second))
	}
	return ops >= count[f]
}

// measure runs every flow's closed loop for the given duration (count nil)
// or for exactly count[f] messages on flow f. Measured message ids start
// after the warm-up message.
func (b *linkBench) measure(tot *totals, seconds float64, count []int, t *tracer) ([]*sendLog, error) {
	logs := make([]*sendLog, linkFlows)
	mt := startMeter()
	err := eachOf(linkFlows, func(f int) error {
		lg := newSendLog()
		logs[f] = lg
		var ss span
		if t != nil {
			b.tts[f].parent = &ss
		}
		for id := uint32(2); !stopAt(mt.start.wall, seconds, count, f, lg.ops); id++ {
			payload := b.expect(uint32(f+1), id)
			lg.ops++
			lg.sent++
			ss = t.begin(layerSender, kindCall, nil)
			t0 := time.Now()
			rep, err := b.senders[f].Send(id, payload)
			ret := time.Now()
			ss.end(1)
			if err != nil {
				return fmt.Errorf("flow %d message %d: %w", f+1, id, err)
			}
			lg.symbols += int64(rep.SymbolsSent)
			lg.frames += int64(rep.FramesSent)
			lg.ignored += int64(rep.AckFramesIgnored)
			c := completion{at: ret, latMs: float64(ret.Sub(t0)) / 1e6, frames: float64(rep.FramesSent)}
			if !rep.Acked {
				lg.failed++
				lg.done = append(lg.done, c)
				continue
			}
			c.bits = int64(len(payload) * 8)
			lg.done = append(lg.done, c)
			lg.acked = append(lg.acked, id)
			if t != nil {
				lg.symbolsOf[id] = rep.SymbolsSent
				lg.returned[id] = ret.Sub(epoch)
			}
		}
		return nil
	})
	mt.finish(tot)
	if err != nil {
		return nil, err
	}
	return logs, settle(tot, b.rx, logs, linkFlows)
}

// settle waits until the receiver has handed over every acknowledged
// message (plus the warm-up ones), then books the flows' logs into the
// ledger: a message counts as delivered only if it was acknowledged and
// the receiver delivered exactly the payload that was sent.
func settle(tot *totals, rx *rxSide, logs []*sendLog, warm int) error {
	acked := 0
	for _, lg := range logs {
		acked += len(lg.acked)
	}
	rx.finish(acked + warm)
	if rx.err != nil {
		return rx.err
	}
	tot.clients = len(logs)
	for f, lg := range logs {
		tot.attempted += lg.sent
		tot.failed += lg.failed
		tot.done = append(tot.done, lg.done...)
		tot.symbols += lg.symbols
		tot.frames += float64(lg.frames)
		for _, id := range lg.acked {
			dv, ok := rx.got[msgKey(uint32(f+1), id)]
			if !ok {
				tot.failed++ // acknowledged but never handed to the application
				continue
			}
			if dv.intact {
				tot.delivered++
				tot.bits += int64(dv.bits)
			}
		}
	}
	tot.failed += rx.failures()
	return nil
}

// deliveredSet lists the (flow, msg) keys delivered intact, sorted.
func deliveredSet(rx *rxSide) []uint64 {
	var keys []uint64
	for k, dv := range rx.got {
		if dv.intact {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// loadBench is a set-up link or wire workload: senders and a receiver.
type loadBench interface {
	warmUp() error
	measure(tot *totals, seconds float64, count []int, t *tracer) ([]*sendLog, error)
	receiver() *rxSide
	close()
}

func (b *linkBench) receiver() *rxSide { return b.rx }

func runLink(rc runConfig) (*report, error) {
	return runLoad(rc, "link", func(seed uint64, t *tracer) (loadBench, error) { return setupLink(seed, t) })
}

// runLoad measures a link or wire workload untraced and, with rc.trace,
// reruns the same operations traced and checks the ingest path and the
// delivered payload set.
func runLoad(rc runConfig, name string, setup func(seed uint64, t *tracer) (loadBench, error)) (*report, error) {
	b, setupS, err := timedSetup(func() (loadBench, error) { return setup(rc.seed, nil) },
		func(b loadBench) { b.close() })
	if err != nil {
		return nil, err
	}
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, err
	}
	rep := &report{}
	rep.e2e.setupS = setupS
	if !b.receiver().batchedIngest() {
		rep.fail("%s: receiver transport lost the batched packet ingest path", name)
	}
	logs, err := b.measure(&rep.e2e, rc.seconds, nil, nil)
	untracedSet := deliveredSet(b.receiver())
	b.close()
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		return rep, nil
	}

	t := newTracer()
	tb, err := setup(rc.seed, t)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	if err := tb.warmUp(); err != nil {
		return nil, err
	}
	rep.traced = &totals{}
	tlogs, err := tb.measure(rep.traced, 0, opsOf(logs), t)
	if err != nil {
		return nil, err
	}
	rep.tracer = t
	checkTracedIngest(rep, name, tb.receiver(), untracedSet, deliveredSet(tb.receiver()))
	rep.layers = linkLayers(t, tb.receiver(), tlogs)
	return rep, nil
}

// checkTracedIngest requires the traced receiver to have used only the
// batched packet ingest path and to have delivered exactly the payload set
// of the untraced run.
func checkTracedIngest(rep *report, name string, rx *rxSide, untraced, traced []uint64) {
	if !rx.batchedIngest() {
		rep.fail("%s: traced receiver transport lost the batched packet ingest path", name)
	}
	if rx.ttr.plainRecvs != 0 {
		rep.fail("%s: traced receiver made %d unbatched receive calls", name, rx.ttr.plainRecvs)
	}
	// Every wire burst resends the previous burst's frames, whose acks the
	// receiver repeats inside Receive; finding none means the stack walk
	// that nests them under the Receive span no longer recognises Receive.
	if name == "wire" && rx.ttr.nestedAcks == 0 {
		rep.fail("wire: no ack was found sent inside Receive")
	}
	if fmt.Sprint(untraced) != fmt.Sprint(traced) {
		rep.fail("%s: traced run delivered %d payloads, untraced %d, or a different set",
			name, len(traced), len(untraced))
	}
}

// receiverLayers fills the metrics the link and wire workloads share: the
// receive-side transport, the receiver and its pools.
func receiverLayers(m map[string]float64, t *tracer, rx *rxSide) {
	recvData := t.get(layerTransport, kindRecvData)
	rcv := t.layerTotals(layerReceiver)
	m["link.transport.recv_ns_per_call"] = ratio(recvData.total, recvData.spans)
	m["link.transport.frames_per_recv_call"] = ratio(recvData.items, recvData.spans-recvData.empty)
	m["link.transport.recv_idle_share"] = ratio(recvData.idle, recvData.total)
	m["link.receiver.self_ns_per_frame"] = ratio(rcv.self, recvData.items)

	var attempts uint64
	for _, n := range rx.final.SearchAttempts {
		attempts += n
	}
	var nodes, syms int64
	for _, dv := range rx.got {
		nodes += dv.nodes
		syms += int64(dv.symbols)
	}
	delivered := int64(len(rx.got))
	m["link.receiver.attempts_per_msg"] = ratio(int64(attempts), delivered)
	m["link.receiver.nodes_per_msg"] = ratio(nodes, delivered)
	m["link.receiver.syms_to_decode"] = ratio(syms, delivered)
	m["link.receiver.tracked_msgs_max"] = float64(rx.trackedMax)
	m["link.receiver.budget_deferrals"] = float64(rx.final.BudgetDeferrals)
	m["link.receiver.shed_flows"] = float64(rx.final.ShedFlows)
	pool := rx.final.Pool
	m["link.pool.hit_ratio"] = ratio(int64(pool.Hits), int64(pool.Hits+pool.Misses))
	m["core.pool.hit_ratio"] = m["link.pool.hit_ratio"]
	m["link.ackarena.miss_ratio"] = ratio(int64(rx.final.AckArena.Misses), int64(rx.final.AckArena.Leases))
}

// senderLayers fills the sender-side metrics from the flows' logs: frames
// and overshoot per acked message, ignored acks, and the ack lag from the
// receiver's delivery to the sender learning of it.
func senderLayers(m map[string]float64, rx *rxSide, logs []*sendLog) {
	var msgs, frames, overshoot, ignored int64
	var lags []float64
	for f, lg := range logs {
		frames += lg.frames
		ignored += lg.ignored
		for _, id := range lg.acked {
			dv, ok := rx.got[msgKey(uint32(f+1), id)]
			if !ok {
				continue
			}
			msgs++
			overshoot += int64(lg.symbolsOf[id] - dv.symbols)
			lags = append(lags, float64(lg.returned[id]-dv.at)/1e6)
		}
	}
	m["link.sender.frames_per_msg"] = ratio(frames, msgs)
	m["link.sender.overshoot_syms_per_msg"] = ratio(overshoot, msgs)
	m["link.sender.ack_ignored_per_msg"] = ratio(ignored, msgs)
	m["link.ack.lag_ms"] = median(lags)
}

// opsOf is the per-flow operation counts of a run, the plan its traced
// rerun repeats.
func opsOf(logs []*sendLog) []int {
	ops := make([]int, len(logs))
	for f, lg := range logs {
		ops[f] = lg.ops
	}
	return ops
}

// linkLayers computes the per-layer metrics of a traced link or wire run.
// Spans a workload never opens (marshal inside Sender.Send, the absent
// impairment on wire) leave their metric at zero.
func linkLayers(t *tracer, rx *rxSide, logs []*sendLog) map[string]float64 {
	m := zeroLayers()
	senderLayers(m, rx, logs)
	frame := t.layerTotals(layerFrame)
	m["link.frame.marshal_ns_per_frame"] = ratio(frame.total, frame.items)
	sendData := t.get(layerTransport, kindSendData)
	m["link.transport.send_ns_per_frame"] = ratio(sendData.total, sendData.items)
	receiverLayers(m, t, rx)
	imp := t.layerTotals(layerImpair)
	m["impair.ns_per_sym"] = ratio(imp.total, imp.items)
	var msgs int64
	for _, lg := range logs {
		msgs += int64(len(lg.acked))
	}
	addSelfTimes(m, t, msgs)
	return m
}
