package channel

import (
	"math"
	"testing"
	"testing/quick"

	"spinal/internal/rng"
)

func TestAWGNNoisePower(t *testing.T) {
	src := rng.New(1)
	ch, err := NewAWGNdB(10, src) // sigma2 = 0.1
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var power float64
	for i := 0; i < n; i++ {
		y := ch.Corrupt(0)
		power += real(y)*real(y) + imag(y)*imag(y)
	}
	avg := power / n
	if math.Abs(avg-0.1) > 0.005 {
		t.Fatalf("noise power = %v, want 0.1", avg)
	}
}

func TestAWGNMeanPreserved(t *testing.T) {
	src := rng.New(2)
	ch, _ := NewAWGN(100, src)
	const n = 50000
	var sumI, sumQ float64
	x := complex(0.7, -0.3)
	for i := 0; i < n; i++ {
		y := ch.Corrupt(x)
		sumI += real(y)
		sumQ += imag(y)
	}
	if math.Abs(sumI/n-0.7) > 0.01 || math.Abs(sumQ/n+0.3) > 0.01 {
		t.Fatalf("mean shifted: %v %v", sumI/n, sumQ/n)
	}
}

func TestAWGNInvalid(t *testing.T) {
	src := rng.New(3)
	if _, err := NewAWGN(0, src); err == nil {
		t.Error("zero SNR accepted")
	}
	if _, err := NewAWGN(-1, src); err == nil {
		t.Error("negative SNR accepted")
	}
	if _, err := NewAWGN(1, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestAWGNSigmaAndSNR(t *testing.T) {
	src := rng.New(4)
	ch, _ := NewAWGNdB(20, src)
	if math.Abs(ch.SNR()-100) > 1e-9 {
		t.Fatalf("SNR = %v, want 100", ch.SNR())
	}
	if math.Abs(ch.NoiseVariance()-0.01) > 1e-12 {
		t.Fatalf("NoiseVariance = %v, want 0.01", ch.NoiseVariance())
	}
}

func TestCorruptBlockMatchesScalar(t *testing.T) {
	// A block corrupt must draw the exact same noise stream as the
	// equivalent sequence of scalar Corrupt calls.
	ch, _ := NewAWGN(10, rng.New(5))
	ref, _ := NewAWGN(10, rng.New(5))
	xs := make([]complex128, 37)
	for i := range xs {
		xs[i] = complex(float64(i)*0.1, -float64(i)*0.05)
	}
	ys := make([]complex128, len(xs))
	ch.CorruptBlock(ys, xs)
	for i, x := range xs {
		if want := ref.Corrupt(x); ys[i] != want {
			t.Fatalf("block symbol %d = %v, scalar path %v", i, ys[i], want)
		}
	}
	// In-place corruption (dst aliasing src) is part of the contract.
	inPlace := append([]complex128(nil), xs...)
	ch2, _ := NewAWGN(10, rng.New(5))
	ref2, _ := NewAWGN(10, rng.New(5))
	ch2.CorruptBlock(inPlace, inPlace)
	want := make([]complex128, len(xs))
	ref2.CorruptBlock(want, xs)
	for i := range want {
		if inPlace[i] != want[i] {
			t.Fatalf("in-place block corrupt diverged at %d", i)
		}
	}
}

func TestQuantizerRoundsToLevel(t *testing.T) {
	q, err := NewQuantizer(4, 1) // 16 levels of width 0.125
	if err != nil {
		t.Fatal(err)
	}
	prop := func(raw int16) bool {
		v := float64(raw) / 10000 // in [-3.2768, 3.2767]
		out := real(q.Quantize(complex(v, 0)))
		// Output must be a representable level: -1 + (i+0.5)*0.125.
		idx := (out + 1) / 0.125
		if math.Abs(idx-math.Round(idx)-0.5) > 1e-9 && math.Abs(idx-math.Floor(idx)-0.5) > 1e-9 {
			return false
		}
		// Output must be within half a step of the clipped input.
		clipped := math.Max(-1, math.Min(1, v))
		return math.Abs(out-clipped) <= 0.125
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerHighResolutionIsTransparent(t *testing.T) {
	q, _ := NewQuantizer(14, 4)
	for _, v := range []float64{-3.9, -1.2345, 0, 0.001, 2.71828} {
		out := real(q.Quantize(complex(v, v)))
		if math.Abs(out-v) > 4.0/(1<<13) {
			t.Fatalf("14-bit quantization error too large at %v: %v", v, out-v)
		}
	}
}

func TestQuantizerClipping(t *testing.T) {
	q, _ := NewQuantizer(8, 1)
	out := q.Quantize(complex(100, -100))
	if real(out) > 1 || imag(out) < -1 {
		t.Fatalf("quantizer did not clip: %v", out)
	}
}

func TestQuantizerInvalid(t *testing.T) {
	if _, err := NewQuantizer(0, 1); err == nil {
		t.Error("0-bit quantizer accepted")
	}
	if _, err := NewQuantizer(8, 0); err == nil {
		t.Error("zero-limit quantizer accepted")
	}
	if _, err := NewQuantizer(40, 1); err == nil {
		t.Error("40-bit quantizer accepted")
	}
}

func TestQuantizedAWGN(t *testing.T) {
	src := rng.New(6)
	ch, err := NewQuantizedAWGN(20, 14, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ch.NoiseVariance()-0.01) > 1e-12 {
		t.Fatalf("NoiseVariance = %v", ch.NoiseVariance())
	}
	// With 14 bits the quantization error should be tiny relative to noise.
	var maxDev float64
	for i := 0; i < 1000; i++ {
		x := complex(0.5, -0.5)
		y := ch.Corrupt(x)
		dev := math.Abs(real(y-x)) + math.Abs(imag(y-x))
		if dev > maxDev {
			maxDev = dev
		}
	}
	if maxDev > 1.0 {
		t.Fatalf("deviation unexpectedly large: %v", maxDev)
	}
}

func TestBSCCrossoverRate(t *testing.T) {
	src := rng.New(7)
	ch, err := NewBSC(0.2, src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	flips := 0
	for i := 0; i < n; i++ {
		if ch.CorruptBit(0) == 1 {
			flips++
		}
	}
	rate := float64(flips) / n
	if math.Abs(rate-0.2) > 0.01 {
		t.Fatalf("flip rate = %v, want 0.2", rate)
	}
}

func TestBSCPreservesAlphabet(t *testing.T) {
	src := rng.New(8)
	ch, _ := NewBSC(0.5, src)
	for i := 0; i < 1000; i++ {
		if v := ch.CorruptBit(byte(i & 1)); v != 0 && v != 1 {
			t.Fatalf("BSC emitted non-bit value %d", v)
		}
	}
	bits := []byte{0, 1, 1, 0, 1}
	out := make([]byte, len(bits))
	ch.CorruptBits(out, bits)
	for i, v := range out {
		if v != 0 && v != 1 {
			t.Fatalf("CorruptBits emitted non-bit value %d at %d", v, i)
		}
	}
}

func TestBSCZeroNoiseless(t *testing.T) {
	src := rng.New(9)
	ch, _ := NewBSC(0, src)
	for i := 0; i < 100; i++ {
		if ch.CorruptBit(1) != 1 || ch.CorruptBit(0) != 0 {
			t.Fatal("BSC with p=0 altered a bit")
		}
	}
}

func TestBSCInvalid(t *testing.T) {
	src := rng.New(10)
	if _, err := NewBSC(0.6, src); err == nil {
		t.Error("BSC p>0.5 accepted")
	}
	if _, err := NewBSC(-0.1, src); err == nil {
		t.Error("BSC p<0 accepted")
	}
	if _, err := NewBSC(0.1, nil); err == nil {
		t.Error("BSC nil source accepted")
	}
}

func TestBECErasureRate(t *testing.T) {
	src := rng.New(11)
	ch, err := NewBEC(0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	erased, flipped := 0, 0
	for i := 0; i < n; i++ {
		switch ch.CorruptBit(1) {
		case Erased:
			erased++
		case 0:
			flipped++
		}
	}
	if flipped != 0 {
		t.Fatalf("BEC flipped %d bits", flipped)
	}
	rate := float64(erased) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("erasure rate = %v, want 0.3", rate)
	}
}

func TestBECInvalid(t *testing.T) {
	src := rng.New(12)
	if _, err := NewBEC(1.0, src); err == nil {
		t.Error("BEC p=1 accepted")
	}
	if _, err := NewBEC(0.1, nil); err == nil {
		t.Error("BEC nil source accepted")
	}
}

func TestRayleighBlockEqualizedMean(t *testing.T) {
	src := rng.New(13)
	ch, err := NewRayleighBlock(30, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	// After coherent equalization the mean of the received symbol should be
	// close to the transmitted symbol when averaged over many blocks.
	const n = 50000
	x := complex(1, 0)
	var sumI float64
	for i := 0; i < n; i++ {
		sumI += real(ch.Corrupt(x))
	}
	if math.Abs(sumI/n-1) > 0.08 {
		t.Fatalf("equalized mean = %v, want about 1", sumI/n)
	}
}

func TestRayleighBlockInvalid(t *testing.T) {
	src := rng.New(14)
	if _, err := NewRayleighBlock(10, 0, src); err == nil {
		t.Error("zero block length accepted")
	}
	if _, err := NewRayleighBlock(10, 4, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestNoiseVariance(t *testing.T) {
	if math.Abs(NoiseVariance(0)-1) > 1e-12 {
		t.Error("NoiseVariance(0 dB) != 1")
	}
	if math.Abs(NoiseVariance(10)-0.1) > 1e-12 {
		t.Error("NoiseVariance(10 dB) != 0.1")
	}
}

func BenchmarkAWGNCorrupt(b *testing.B) {
	src := rng.New(1)
	ch, _ := NewAWGNdB(10, src)
	var acc complex128
	for i := 0; i < b.N; i++ {
		acc += ch.Corrupt(complex(0.5, 0.5))
	}
	_ = acc
}

// Every model implements the module's one channel contract.
var (
	_ Channel    = (*AWGN)(nil)
	_ Channel    = (*QuantizedAWGN)(nil)
	_ Channel    = (*RayleighBlock)(nil)
	_ BitChannel = (*BSC)(nil)
	_ BitChannel = (*BEC)(nil)
)

// TestNonFiniteParametersRejected checks that no constructor lets a NaN or
// infinite parameter through: a NaN SNR would emit NaN symbols and a NaN
// probability silently reads as "never" in every Bernoulli draw.
func TestNonFiniteParametersRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	src := rng.New(15)
	for name, build := range map[string]func() error{
		"awgn snr=nan":         func() error { _, err := NewAWGN(nan, src); return err },
		"awgn snr=+inf":        func() error { _, err := NewAWGN(inf, src); return err },
		"awgn snr=nan dB":      func() error { _, err := NewAWGNdB(nan, src); return err },
		"awgn snr=+inf dB":     func() error { _, err := NewAWGNdB(inf, src); return err },
		"quantized snr=nan dB": func() error { _, err := NewQuantizedAWGN(nan, 8, src); return err },
		"bsc p=nan":            func() error { _, err := NewBSC(nan, src); return err },
		"bec p=nan":            func() error { _, err := NewBEC(nan, src); return err },
		"rayleigh avg=nan dB":  func() error { _, err := NewRayleighBlock(nan, 4, src); return err },
		"rayleigh avg=+inf dB": func() error { _, err := NewRayleighBlock(inf, 4, src); return err },
		"rayleigh avg=-inf dB": func() error { _, err := NewRayleighBlock(-inf, 4, src); return err },
	} {
		if build() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
