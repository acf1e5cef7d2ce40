package spinal_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spinal"
	"spinal/internal/adapt"
	"spinal/internal/fading"
)

// The stream goldens pin every channel the facade can build to the exact
// corruption it produces: a fixed input block is fed through each channel in
// unevenly sized calls (block boundaries must not matter) and the received
// values are hashed bit for bit, next to the channel's name and its noise
// variance before and after. Any change to a noise stream, a seed
// derivation, a stage's state machine or a channel's metadata shows up here.
// The rateless-versus-adaptation runs of internal/adapt and the facade
// transmit loops are pinned the same way, since they consume these streams.

// goldenChunks are the call sizes each channel is driven with, in order.
var goldenChunks = []int{1, 63, 192, 256}

func goldenSymbols() []complex128 {
	n := 0
	for _, c := range goldenChunks {
		n += c
	}
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(float64(i%7)*0.3-0.9, float64(i%5)*0.35-0.7)
	}
	return xs
}

func goldenBits() []byte {
	bits := make([]byte, len(goldenSymbols()))
	for i := range bits {
		bits[i] = byte((i*i + i/3) & 1)
	}
	return bits
}

// symbolStreamHash corrupts the golden block through ch chunk by chunk and
// hashes the received values.
func symbolStreamHash(ch spinal.Channel) uint64 {
	xs := goldenSymbols()
	rx := make([]complex128, len(xs))
	off := 0
	for _, c := range goldenChunks {
		ch.CorruptBlock(rx[off:off+c], xs[off:off+c])
		off += c
	}
	h := fnv.New64a()
	var buf [16]byte
	for _, y := range rx {
		putUint64(buf[:8], math.Float64bits(real(y)))
		putUint64(buf[8:], math.Float64bits(imag(y)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func bitStreamHash(ch spinal.BitChannel) uint64 {
	tx := goldenBits()
	rx := make([]byte, len(tx))
	off := 0
	for _, c := range goldenChunks {
		ch.CorruptBits(rx[off:off+c], tx[off:off+c])
		off += c
	}
	h := fnv.New64a()
	h.Write(rx)
	return h.Sum64()
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// closeVariance compares noise variances to a relative 1e-12: the value is
// metadata, not stream, so a last-bit difference in how dB is converted is
// not a change of channel.
func closeVariance(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

type symbolGolden struct {
	label     string
	build     func() (spinal.Channel, error)
	name      string
	varBefore float64
	varAfter  float64
	hash      uint64
}

func traceChannel(mk func() (spinal.Trace, error), seed uint64) func() (spinal.Channel, error) {
	return func() (spinal.Channel, error) {
		tr, err := mk()
		if err != nil {
			return nil, err
		}
		return spinal.NewTraceChannel(tr, seed)
	}
}

func pipeline(spec string, seed uint64) func() (spinal.Channel, error) {
	return func() (spinal.Channel, error) { return spinal.NewImpairmentPipeline(spec, seed) }
}

func symbolGoldens() []symbolGolden {
	return []symbolGolden{
		{label: "awgn", build: func() (spinal.Channel, error) { return spinal.NewAWGN(9.5, 101) }},
		{label: "quantized-awgn", build: func() (spinal.Channel, error) { return spinal.NewQuantizedAWGN(14, 6, 102) }},
		{label: "rayleigh", build: func() (spinal.Channel, error) { return spinal.NewRayleigh(12, 16, 103) }},
		{label: "trace/constant", build: traceChannel(func() (spinal.Trace, error) { return spinal.ConstantTrace(11), nil }, 104)},
		{label: "trace/gilbert-elliott", build: traceChannel(func() (spinal.Trace, error) {
			return spinal.GilbertElliottTrace(20, 3, 40, 25, 105)
		}, 106)},
		{label: "trace/rayleigh", build: traceChannel(func() (spinal.Trace, error) { return spinal.RayleighTrace(13, 32, 107) }, 108)},
		{label: "trace/walk", build: traceChannel(func() (spinal.Trace, error) { return spinal.WalkTrace(2, 22, 0.7, 109) }, 110)},
		{label: "trace/doppler", build: traceChannel(func() (spinal.Trace, error) { return spinal.DopplerTrace(15, 0.03, 111) }, 112)},
		{label: "impair/awgn", build: pipeline("awgn(snr=7)", 201)},
		{label: "impair/ge", build: pipeline("ge(good=18,bad=2,dgood=50,dbad=30)", 202)},
		{label: "impair/rayleigh", build: pipeline("rayleigh(avg=12,tc=24)", 203)},
		{label: "impair/doppler", build: pipeline("doppler(avg=14,fd=0.02)", 204)},
		{label: "impair/walk", build: pipeline("walk(min=3,max=19,step=0.8)", 205)},
		{label: "impair/ramp", build: pipeline("ramp(from=20,to=4,over=400)", 206)},
		{label: "impair/step", build: pipeline("step(from=18,to=6,at=250)", 207)},
		{label: "impair/spike", build: pipeline("spike(prob=0.03,dwell=9,db=-2)", 208)},
		{label: "impair/erase", build: pipeline("erase(p=0.2,block=12)", 209)},
	}
}

// Values recorded before the channel models, trace channel and impairment
// stages were unified behind one interface; they must never need updating
// for a refactor.
var symbolGoldenWant = map[string]symbolGolden{
	"awgn":                  {name: "awgn(9.5dB)", varBefore: 0.11220184543019636, varAfter: 0.11220184543019636, hash: 0x959730d6ee516869},
	"quantized-awgn":        {name: "quantized-awgn(14.0dB,6bit)", varBefore: 0.03981071705534973, varAfter: 0.03981071705534973, hash: 0x43508e0243a2977f},
	"rayleigh":              {name: "rayleigh(avg 12.0dB, Tc=16)", varBefore: 0.06309573444801933, varAfter: 0.06309573444801933, hash: 0x148050b115670cc4},
	"trace/constant":        {name: "constant(11.0dB)", varBefore: 0.07943282347242814, varAfter: 0.07943282347242814, hash: 0xb127a0dfd1ffb215},
	"trace/gilbert-elliott": {name: "gilbert-elliott(20/3dB)", varBefore: 0.01, varAfter: 0.01, hash: 0xd817488f4bec737d},
	"trace/rayleigh":        {name: "rayleigh(avg 13dB, Tc=32)", varBefore: 0.07264000567886704, varAfter: 0.058713584181664544, hash: 0x811ba07c97be2a23},
	"trace/walk":            {name: "walk(2..22dB)", varBefore: 0.06309573444801933, varAfter: 0.007413102413009178, hash: 0x1382b35b501d5583},
	"trace/doppler":         {name: "doppler(avg 15dB, fd=0.03)", varBefore: 0.013937200155020283, varAfter: 0.08725276622196312, hash: 0x5a6a698b41635742},
	"impair/awgn":           {name: "awgn(snr=7)", varBefore: 0.199526231496888, varAfter: 0.199526231496888, hash: 0xd776369c92cd21e1},
	"impair/ge":             {name: "ge(good=18,bad=2,dgood=50,dbad=30)", varBefore: 0.015848931924611134, varAfter: 0.015848931924611134, hash: 0xdf91e186bef8a690},
	"impair/rayleigh":       {name: "rayleigh(avg=12,tc=24)", varBefore: 0.042407298396757005, varAfter: 0.01691628232054182, hash: 0x46180bb8cef9cd41},
	"impair/doppler":        {name: "doppler(avg=14,fd=0.02)", varBefore: 0.02343045226415713, varAfter: 0.08554749561455668, hash: 0x47d0f9861bca95c3},
	"impair/walk":           {name: "walk(min=3,max=19,step=0.8)", varBefore: 0.07943282347242814, varAfter: 0.031622776601683826, hash: 0xbaaa62956afbd8fa},
	"impair/ramp":           {name: "ramp(from=20,to=4,over=400)", varBefore: 0.01, varAfter: 0.3981071705534972, hash: 0xe352af01bb77ca76},
	"impair/step":           {name: "step(from=18,to=6,at=250)", varBefore: 0.015848931924611134, varAfter: 0.25118864315095807, hash: 0x6944391830175bab},
	"impair/spike":          {name: "spike(prob=0.03,dwell=9,db=-2)", varBefore: 0, varAfter: 0, hash: 0xdab785e706eb6ca},
	"impair/erase":          {name: "erase(p=0.2,block=12)", varBefore: 0, varAfter: 0, hash: 0x7459b21db541262c},
}

func TestChannelStreamGoldens(t *testing.T) {
	for _, g := range symbolGoldens() {
		ch, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		got := symbolGolden{label: g.label, name: ch.Name(), varBefore: ch.NoiseVariance()}
		got.hash = symbolStreamHash(ch)
		got.varAfter = ch.NoiseVariance()
		want, ok := symbolGoldenWant[g.label]
		if !ok {
			t.Errorf("no golden for %s: {name: %q, varBefore: %v, varAfter: %v, hash: %#x}",
				g.label, got.name, got.varBefore, got.varAfter, got.hash)
			continue
		}
		if got.name != want.name || got.hash != want.hash ||
			!closeVariance(got.varBefore, want.varBefore) || !closeVariance(got.varAfter, want.varAfter) {
			t.Errorf("%s: got name %q variance %v→%v hash %#x, want name %q variance %v→%v hash %#x",
				g.label, got.name, got.varBefore, got.varAfter, got.hash,
				want.name, want.varBefore, want.varAfter, want.hash)
		}
	}
}

func TestBitChannelStreamGoldens(t *testing.T) {
	want := map[string]struct {
		name string
		hash uint64
	}{
		"bsc": {"bsc(p=0.110)", 0xd7fdf59072a42a58},
		"bec": {"bec(p=0.270)", 0xefce3b8af4d434e1},
	}
	for label, build := range map[string]func() (spinal.BitChannel, error){
		"bsc": func() (spinal.BitChannel, error) { return spinal.NewBSC(0.11, 301) },
		"bec": func() (spinal.BitChannel, error) { return spinal.NewBEC(0.27, 302) },
	} {
		ch, err := build()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		name, hash := ch.Name(), bitStreamHash(ch)
		w, ok := want[label]
		if !ok {
			t.Errorf("no golden for %s: {%q, %#x}", label, name, hash)
			continue
		}
		if name != w.name || hash != w.hash {
			t.Errorf("%s: got %q %#x, want %q %#x", label, name, hash, w.name, w.hash)
		}
	}
}

// TestTransmitStreamGoldens pins the facade's transmit loops over the
// symbol and bit channels: the channel uses each message took and a hash of
// every decoded message.
func TestTransmitStreamGoldens(t *testing.T) {
	code, err := spinal.NewCode(spinal.Config{MessageBits: 48, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bitCode, err := spinal.NewCode(spinal.Config{MessageBits: 32, K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := uint64(0); i < 4; i++ {
		msg := spinal.RandomMessage(48, 400+i)
		ch, err := spinal.NewQuantizedAWGN(4+4*float64(i), 14, 410+i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := code.TransmitOver(msg, ch, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("sym%d:%v/%d/%x", i, res.Delivered, res.Symbols, res.Decoded))

		bits := spinal.RandomMessage(32, 420+i)
		bsc, err := spinal.NewBSC(0.02*float64(i+1), 430+i)
		if err != nil {
			t.Fatal(err)
		}
		bres, err := bitCode.TransmitBitsOver(bits, bsc, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("bit%d:%v/%d/%x", i, bres.Delivered, bres.Symbols, bres.Decoded))
	}
	want := []string{
		"sym0:true/27/2994fd204f85", "bit0:true/50/ce3f3986",
		"sym1:true/19/778c33fde38e", "bit1:true/45/2dc570b8",
		"sym2:true/11/cae41f8c6d4c", "bit2:true/51/0d4c200e",
		"sym3:true/9/0013531bb496", "bit3:true/45/7d34608a",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("transmit goldens changed:\ngot  %q\nwant %q", got, want)
	}
}

// TestAdaptStreamGoldens pins the rate-adaptation and rateless runs of
// internal/adapt over one trace of each kind.
func TestAdaptStreamGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("LDPC decoding over a 20k-symbol budget")
	}
	traces := []struct {
		label string
		mk    func() (fading.Trace, error)
	}{
		{"constant", func() (fading.Trace, error) { return fading.Constant{Level: 16}, nil }},
		{"gilbert-elliott", func() (fading.Trace, error) { return fading.NewGilbertElliott(22, 5, 600, 300, 501) }},
		{"rayleigh", func() (fading.Trace, error) { return fading.NewRayleighBlock(15, 250, 502) }},
	}
	var got []string
	for _, tc := range traces {
		for _, run := range []func(adapt.Config) (*adapt.Result, error){adapt.RunAdaptive, adapt.RunRateless} {
			tr, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(adapt.Config{Trace: tr, SymbolBudget: 3000, EstimateDelay: 200, EstimateErrDB: 1, MessageBits: 96, Seed: 503})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s/%s:%d/%d/%d/%d", tc.label, res.Scheme,
				res.Frames, res.FrameErrors, res.DeliveredBits, res.Symbols))
		}
	}
	want := []string{
		"constant/rate-adaptation:19/0/6480/3078", "constant/spinal-rateless:116/0/11136/3000",
		"gilbert-elliott/rate-adaptation:23/5/7830/3078", "gilbert-elliott/spinal-rateless:116/0/11136/3000",
		"rayleigh/rate-adaptation:16/2/5508/3078", "rayleigh/spinal-rateless:103/0/9888/3036",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("adapt goldens changed:\ngot  %q\nwant %q", got, want)
	}
}
