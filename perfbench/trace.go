package main

import (
	"net"
	"reflect"
	"runtime"
	"sync"
	"time"

	"spinal/internal/channel"
	"spinal/internal/link"
)

// The traced run records a span around every call the benchmark makes into
// a layer's public functions, and around every call the program makes into
// the transport and impairment wrappers the benchmark passes in. Spans are
// folded into per-layer totals as they close (duration, self time and an
// item count), so memory stays flat on the wire workload's millions of
// frames; a layer's self time is its span's duration minus the time its
// direct child spans cover.

// layer names one layer of the stack, as the per-layer metrics name it.
type layer uint8

const (
	layerSession   layer = iota // core session loop (the codec driver)
	layerEncode                 // core.Encoder.EncodeBatch
	layerObserve                // core.Observations.AddBatch
	layerDecode                 // core.BeamDecoder.Decode
	layerImpair                 // channel CorruptBlock / Corrupt
	layerFrame                  // link.DataFrame.AppendTo
	layerTransport              // link.Transport methods
	layerSender                 // link.Sender.Send
	layerReceiver               // link.Receiver.Receive
	numLayers
)

var layerNames = [numLayers]string{
	"core.session", "core.encode", "core.observe", "core.decode", "impair",
	"link.frame", "link.transport", "link.sender", "link.receiver",
}

// kind splits a layer's spans where the metrics need it: transport calls
// are told apart by direction and by which side of the link makes them.
type kind uint8

const (
	kindCall     kind = iota
	kindSendData      // a sender handing data frames to its socket
	kindSendAck       // the receiver's workers sending acks
	kindRecvData      // the receiver's ingest pulling data frames
	kindRecvAck       // a sender waiting for acks
	numKinds
)

// spanStats aggregates the closed spans of one (layer, kind).
type spanStats struct {
	spans int64 // closed spans
	total int64 // summed duration, ns
	self  int64 // summed duration minus direct children, ns
	items int64 // frames, symbols or nodes the spans carried
	empty int64 // spans that carried no item (timeouts, empty polls)
	idle  int64 // duration of the empty spans, ns
}

// tracer is the span sink of one traced run. It is safe for concurrent use:
// the receiver's decode workers send acks through the traced transport.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	stats [numLayers][numKinds]spanStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is one open span. It lives on its caller's stack; a child adds its
// duration to the parent's child total, so a parent and its children must
// run on one goroutine.
type span struct {
	t      *tracer
	l      layer
	k      kind
	start  int64
	child  int64
	parent *span
}

// begin opens a span; a nil tracer yields an inert span, so untraced code
// paths can share the call sites.
func (t *tracer) begin(l layer, k kind, parent *span) span {
	if t == nil {
		return span{}
	}
	return span{t: t, l: l, k: k, start: int64(time.Since(t.epoch)), parent: parent}
}

// end closes the span, recording how many items (frames, symbols, nodes) it
// carried.
func (s *span) end(items int) {
	if s.t == nil {
		return
	}
	d := int64(time.Since(s.t.epoch)) - s.start
	if s.parent != nil {
		s.parent.child += d
	}
	s.t.mu.Lock()
	st := &s.t.stats[s.l][s.k]
	st.spans++
	st.total += d
	st.self += d - s.child
	st.items += int64(items)
	if items == 0 {
		st.empty++
		st.idle += d
	}
	s.t.mu.Unlock()
}

// layerTotals sums a layer's spans over every kind.
func (t *tracer) layerTotals(l layer) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum spanStats
	for _, st := range t.stats[l] {
		sum.spans += st.spans
		sum.total += st.total
		sum.self += st.self
		sum.items += st.items
		sum.empty += st.empty
		sum.idle += st.idle
	}
	return sum
}

func (t *tracer) get(l layer, k kind) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats[l][k]
}

// tracedTransport times every call into a UDP socket. It implements every
// optional transport interface the socket does (link.BatchPacketTransport
// and so the rest), because the link package type-asserts them to pick its
// batched and per-peer paths: a wrapper that hid one would change what the
// traced run measures. sendKind and recvKind say which side of the link the
// socket serves. parent, when set, points at the span the goroutine that
// owns the socket has open (a sender's Send span, a wire burst, the
// receiver's Receive span), so the socket's spans nest under it.
type tracedTransport struct {
	inner    *link.UDP
	t        *tracer
	sendKind kind
	recvKind kind
	parent   *span
	// plainRecvs counts receive calls that bypassed the batched packet
	// ingest path; the benchmark requires it to stay zero on the receiver.
	plainRecvs int64
	// nestedAcks counts the receiver's acks sent inside Receive.
	nestedAcks int64
}

var _ link.BatchPacketTransport = (*tracedTransport)(nil)

func traceTransport(sock *link.UDP, t *tracer, sendKind, recvKind kind) *tracedTransport {
	return &tracedTransport{inner: sock, t: t, sendKind: sendKind, recvKind: recvKind}
}

// receiveEntry is the entry address of link.Receiver.Receive.
var receiveEntry = runtime.FuncForPC(reflect.ValueOf((*link.Receiver).Receive).Pointer()).Entry()

// inReceive caches, per return address, whether it lies in
// link.Receiver.Receive.
var inReceive sync.Map

// sendParent is the span a send on this socket nests under. The receiver
// sends acks from its decode workers, concurrently with its Receive
// goroutine, and repeats the ack of a duplicate frame synchronously inside
// Receive; only the latter belong to the Receive span, and they are told
// apart by whether Receive is on the calling goroutine's stack.
func (w *tracedTransport) sendParent() *span {
	if w.sendKind != kindSendAck || w.parent == nil {
		return w.parent
	}
	var pcs [32]uintptr
	for _, pc := range pcs[:runtime.Callers(3, pcs[:])] {
		in, ok := inReceive.Load(pc)
		if !ok {
			f := runtime.FuncForPC(pc - 1)
			in = f != nil && f.Entry() == receiveEntry
			inReceive.Store(pc, in)
		}
		if in.(bool) {
			w.nestedAcks++
			return w.parent
		}
	}
	return nil
}

func (w *tracedTransport) beginSend() span {
	t0 := int64(time.Since(w.t.epoch))
	p := w.sendParent()
	s := w.t.begin(layerTransport, w.sendKind, p)
	if p != nil {
		// The stack walk is tracing cost, not the parent's self time.
		p.child += s.start - t0
	}
	return s
}

func (w *tracedTransport) beginRecv(batched bool) span {
	if !batched {
		w.plainRecvs++
	}
	return w.t.begin(layerTransport, w.recvKind, w.parent)
}

func (w *tracedTransport) Send(frame []byte) error {
	s := w.beginSend()
	err := w.inner.Send(frame)
	s.end(1)
	return err
}

func (w *tracedTransport) SendTo(frame []byte, to net.Addr) error {
	s := w.beginSend()
	err := w.inner.SendTo(frame, to)
	s.end(1)
	return err
}

func (w *tracedTransport) SendBatch(frames [][]byte) (int, error) {
	s := w.beginSend()
	n, err := w.inner.SendBatch(frames)
	s.end(n)
	return n, err
}

func (w *tracedTransport) Receive(buf []byte, timeout time.Duration) (int, error) {
	s := w.beginRecv(false)
	n, err := w.inner.Receive(buf, timeout)
	s.end(frameCount(err == nil))
	return n, err
}

func (w *tracedTransport) ReceiveFrom(buf []byte, timeout time.Duration) (int, net.Addr, error) {
	s := w.beginRecv(false)
	n, from, err := w.inner.ReceiveFrom(buf, timeout)
	s.end(frameCount(err == nil))
	return n, from, err
}

func (w *tracedTransport) ReceiveBatch(bufs [][]byte, timeout time.Duration) (int, error) {
	s := w.beginRecv(false)
	n, err := w.inner.ReceiveBatch(bufs, timeout)
	s.end(n)
	return n, err
}

func (w *tracedTransport) ReceiveBatchFrom(bufs [][]byte, addrs []net.Addr, timeout time.Duration) (int, error) {
	s := w.beginRecv(true)
	n, err := w.inner.ReceiveBatchFrom(bufs, addrs, timeout)
	s.end(n)
	return n, err
}

func (w *tracedTransport) Close() error { return w.inner.Close() }

func frameCount(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// radio is a receiver impairment with the block fast path the receiver
// type-asserts, as channel.QuantizedAWGN has.
type radio interface {
	channel.SymbolChannel
	channel.BlockChannel
}

// tracedChannel times a receiver impairment. parent points at the span of
// the goroutine that runs the impairment (the receiver's Receive span).
type tracedChannel struct {
	inner  radio
	t      *tracer
	parent *span
}

func (c *tracedChannel) Corrupt(x complex128) complex128 {
	s := c.t.begin(layerImpair, kindCall, c.parent)
	y := c.inner.Corrupt(x)
	s.end(1)
	return y
}

func (c *tracedChannel) CorruptBlock(dst, src []complex128) {
	s := c.t.begin(layerImpair, kindCall, c.parent)
	c.inner.CorruptBlock(dst, src)
	s.end(len(src))
}
