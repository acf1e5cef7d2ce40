package main

import (
	"errors"
	"fmt"
	"time"

	"spinal"
	"spinal/internal/core"
	"spinal/internal/link"
	"spinal/internal/sim"
)

// The wire workload: two sockets send bursts of the smallest data frames to
// one link.Receiver (no impairment) and wait for every ack — a closed loop
// per socket. Each frame carries one whole sequential pass of a tiny K=4
// message, so it decodes from its first frame. Every burst also carries a
// duplicate of each message of the burst before, standing in for a
// retransmission that crossed the ack: it reaches a delivered message and
// is answered with a repeated ack. Frames are marshalled live with
// DataFrame.AppendTo. Per-frame ingest, parse, demux and ack repeat
// dominate; the decoder, the impairment and sender pacing do almost
// nothing.

const (
	wireFlows = 2
	// wireBurst is the messages per burst; with duplicates a burst is 32
	// frames, and a duplicate trails its original by 16 frames of its own
	// flow and at most 32 of the other, inside the receiver's 64-frame
	// grace window for delivered messages, so it meets the delivered state.
	wireBurst = 16
	wireK     = 4
	wireC     = 10
	wireDeck  = 2048
	// wireAckWait is how long a burst waits for its acks before resending
	// the unacknowledged messages; wireTries bounds the resends.
	wireAckWait = 200 * time.Millisecond
	wireTries   = 10
)

// wireSizes is the payload mix: 1- and 2-byte payloads (40 and 48 coded
// bits with the CRC-32, so 10 and 12 symbols per frame at K=4).
var wireSizes = []sim.SizeClass{{Bytes: 1, Weight: 1}, {Bytes: 2, Weight: 1}}

type wireMsg struct {
	payload []byte
	bits    int
	syms    []complex128 // one sequential pass of the noiseless code
}

type wireBench struct {
	decks [][]wireMsg
	rx    *rxSide
	socks []*link.UDP
	trs   []link.BatchTransport
	tts   []*tracedTransport
}

func wireInputs(seed uint64) ([][]wireMsg, error) {
	inputs, err := flowInputs(seed, wireFlows, wireDeck, wireSizes)
	if err != nil {
		return nil, err
	}
	decks := make([][]wireMsg, len(inputs))
	for f, deck := range inputs {
		for _, in := range deck {
			msg := spinal.AppendCRC32(in.payload)
			params := core.Params{K: wireK, C: wireC, MessageBits: len(msg) * 8, Seed: core.DefaultSeed}
			enc, err := core.NewEncoder(params, msg)
			if err != nil {
				return nil, err
			}
			sched, err := core.NewSequentialSchedule(params.NumSegments())
			if err != nil {
				return nil, err
			}
			poss := make([]core.SymbolPos, params.NumSegments())
			core.PositionsInto(sched, 0, poss)
			syms := make([]complex128, len(poss))
			if err := enc.EncodeBatch(syms, poss); err != nil {
				return nil, err
			}
			decks[f] = append(decks[f], wireMsg{payload: in.payload, bits: params.MessageBits, syms: syms})
		}
	}
	return decks, nil
}

func (b *wireBench) msg(flow, id uint32) *wireMsg {
	deck := b.decks[flow-1]
	return &deck[int(id-1)%len(deck)]
}

func (b *wireBench) expect(flow, id uint32) []byte {
	if flow < 1 || int(flow) > len(b.decks) || id == 0 {
		return nil
	}
	return b.msg(flow, id).payload
}

func setupWire(seed uint64, t *tracer) (*wireBench, error) {
	decks, err := wireInputs(seed)
	if err != nil {
		return nil, err
	}
	b := &wireBench{decks: decks}
	b.rx, err = newRxSide(link.Config{}, nil, t, b.expect)
	if err != nil {
		return nil, err
	}
	for f := 0; f < wireFlows; f++ {
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
		bt, ok := tr.(link.BatchTransport)
		if !ok {
			b.close()
			return nil, fmt.Errorf("wire: load socket lost its batched send path")
		}
		b.trs = append(b.trs, bt)
	}
	return b, nil
}

// warmUp sends one burst per flow (message ids 1..wireBurst), so the
// decoder pool and the arenas are warm before timing.
func (b *wireBench) warmUp() error {
	return eachOf(wireFlows, func(f int) error {
		return b.burst(f, 1, newWireLog(), nil, nil)
	})
}

func (b *wireBench) close() {
	for _, s := range b.socks {
		_ = s.Close() // sockets were only used for datagrams; nothing to flush
	}
	if b.rx != nil {
		b.rx.close()
	}
}

// wireLog is one flow's record of a measured run plus its burst scratch:
// two sets of marshal buffers, so the previous burst's frames survive to be
// sent again as duplicates.
type wireLog struct {
	*sendLog
	bufs   [2][][]byte
	cur    int
	prev   [][]byte // the previous burst's frames, resent as duplicates
	batch  [][]byte
	ackBuf []byte
	view   link.FrameView
}

func newWireLog() *wireLog {
	lg := &wireLog{
		sendLog: newSendLog(),
		batch:   make([][]byte, 0, 2*wireBurst),
		ackBuf:  make([]byte, link.MaxFrameSize),
	}
	for k := range lg.bufs {
		lg.bufs[k] = make([][]byte, wireBurst)
		for i := range lg.bufs[k] {
			lg.bufs[k][i] = make([]byte, 0, link.MaxFrameSize)
		}
	}
	return lg
}

// burst sends the duplicates of the previous burst, then messages
// first..first+wireBurst-1 of a flow, and waits until every new message is
// acknowledged, resending the unacknowledged ones after wireAckWait. bs is
// the burst's open span, if traced.
func (b *wireBench) burst(f int, first uint32, lg *wireLog, t *tracer, bs *span) error {
	flow := uint32(f + 1)
	frames := append(lg.batch[:0], lg.prev...)
	for i := range lg.prev {
		id := first - wireBurst + uint32(i)
		n := len(b.msg(flow, id).syms)
		lg.symbols += int64(n)
		if t != nil {
			lg.symbolsOf[id] += n
		}
	}
	lg.cur ^= 1
	bufs := lg.bufs[lg.cur]
	for i := range bufs {
		id := first + uint32(i)
		m := b.msg(flow, id)
		df := link.DataFrame{
			Version: link.FrameV1, FlowID: flow, MsgID: id, MessageBits: uint32(m.bits),
			K: wireK, C: wireC, Schedule: link.ScheduleSequential, Seed: core.DefaultSeed,
			Symbols: m.syms,
		}
		s := t.begin(layerFrame, kindCall, bs)
		buf, err := df.AppendTo(bufs[i][:0])
		s.end(1)
		if err != nil {
			return err
		}
		bufs[i] = buf
		frames = append(frames, buf)
		lg.symbols += int64(len(m.syms))
		if t != nil {
			lg.symbolsOf[id] = len(m.syms)
		}
	}
	lg.prev = bufs
	if err := b.send(f, frames, lg); err != nil {
		return err
	}
	lg.sent += wireBurst

	var acked [wireBurst]bool
	pending := wireBurst
	deadline := time.Now().Add(wireAckWait)
	for tries := 0; pending > 0; {
		wait := time.Until(deadline)
		if wait < 0 {
			wait = 0
		}
		n, err := b.trs[f].Receive(lg.ackBuf, wait)
		if errors.Is(err, link.ErrTimeout) {
			if tries++; tries > wireTries {
				lg.failed += pending
				return nil
			}
			frames = frames[:0]
			for i, ok := range acked {
				if !ok {
					id := first + uint32(i)
					frames = append(frames, bufs[i])
					lg.symbols += int64(len(b.msg(flow, id).syms))
					if t != nil {
						lg.symbolsOf[id] += len(b.msg(flow, id).syms)
					}
				}
			}
			if err := b.send(f, frames, lg); err != nil {
				return err
			}
			deadline = time.Now().Add(wireAckWait)
			continue
		}
		if err != nil {
			return err
		}
		v := &lg.view
		if link.UnmarshalFrameInPlace(lg.ackBuf[:n], v) != nil || v.Kind != link.KindAck || v.FlowID != flow ||
			!v.Decoded || v.MsgID < first || v.MsgID >= first+wireBurst || acked[v.MsgID-first] {
			lg.ignored++ // repeated acks answering the duplicates
			continue
		}
		acked[v.MsgID-first] = true
		pending--
		lg.acked = append(lg.acked, v.MsgID)
		if t != nil {
			lg.returned[v.MsgID] = time.Since(epoch)
		}
	}
	return nil
}

func (b *wireBench) send(f int, frames [][]byte, lg *wireLog) error {
	for len(frames) > 0 {
		n, err := b.trs[f].SendBatch(frames)
		lg.frames += int64(n)
		if err != nil {
			return err
		}
		frames = frames[n:]
	}
	return nil
}

// measure runs every flow's burst loop for the given duration (count nil)
// or for exactly count[f] bursts on flow f. Measured message ids start
// after the warm-up burst.
func (b *wireBench) measure(tot *totals, seconds float64, count []int, t *tracer) ([]*sendLog, error) {
	logs := make([]*sendLog, wireFlows)
	mt := startMeter()
	err := eachOf(wireFlows, func(f int) error {
		lg := newWireLog()
		logs[f] = lg.sendLog
		var bs span
		if t != nil {
			b.tts[f].parent = &bs
		}
		for id := uint32(wireBurst + 1); !stopAt(mt.start.wall, seconds, count, f, lg.ops); id += wireBurst {
			lg.ops++
			bs = t.begin(layerSender, kindCall, nil)
			t0 := time.Now()
			acked, frames := len(lg.acked), lg.frames
			err := b.burst(f, id, lg, t, &bs)
			end := time.Now()
			bs.end(wireBurst)
			if err != nil {
				return fmt.Errorf("flow %d burst at message %d: %w", f+1, id, err)
			}
			var bits int64
			for _, a := range lg.acked[acked:] {
				bits += int64(len(b.msg(uint32(f+1), a).payload) * 8)
			}
			lg.done = append(lg.done, completion{at: end, latMs: float64(end.Sub(t0)) / 1e6, bits: bits,
				frames: float64(lg.frames - frames)})
		}
		return nil
	})
	mt.finish(tot)
	if err != nil {
		return nil, err
	}
	return logs, settle(tot, b.rx, logs, wireFlows*wireBurst)
}

func (b *wireBench) receiver() *rxSide { return b.rx }

func runWire(rc runConfig) (*report, error) {
	rep, err := runLoad(rc, "wire", func(seed uint64, t *tracer) (loadBench, error) { return setupWire(seed, t) })
	if err == nil && rc.trace {
		if got := rep.layers["link.transport.frames_per_recv_call"]; got <= 1 {
			rep.fail("wire: receiver ingested %.2f frames per receive call; the batched path should move more than one", got)
		}
	}
	return rep, err
}
