package impair

import (
	"encoding/json"
	"math/cmplx"
	"testing"

	"spinal/internal/fading"
	"spinal/internal/link"
	"spinal/internal/mathx"
)

// stackSpec is a representative three-stage stack exercising trace gating,
// Markov interference and block erasures at once.
const stackSpec = "ge(good=16,bad=3,dgood=200,dbad=60)|spike(prob=0.05,dwell=10,db=-3)|erase(p=0.05,block=8)"

func testInput(n int) []complex128 {
	xs := make([]complex128, n)
	for i := range xs {
		// A fixed deterministic constellation-ish input; values themselves
		// don't matter, only that they are reproducible.
		xs[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	return xs
}

func corruptAll(t *testing.T, spec string, seed uint64, n, blockLen int) []complex128 {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	p, err := s.Build(seed)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	src := testInput(n)
	dst := make([]complex128, n)
	for off := 0; off < n; off += blockLen {
		end := off + blockLen
		if end > n {
			end = n
		}
		p.CorruptBlock(dst[off:end], src[off:end])
	}
	return dst
}

// TestSameSpecSeedIdenticalBlocks pins the determinism contract: the same
// spec and seed reproduce byte-identical corrupted blocks, and block
// boundaries do not perturb the stream (one big block equals many small
// ones, equals symbol-at-a-time scalar Corrupt).
func TestSameSpecSeedIdenticalBlocks(t *testing.T) {
	const n = 512
	a := corruptAll(t, stackSpec, 42, n, n)
	b := corruptAll(t, stackSpec, 42, n, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("symbol %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}

	c := corruptAll(t, stackSpec, 42, n, 64)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("symbol %d depends on block boundaries: %v vs %v", i, a[i], c[i])
		}
	}

	s, _ := Parse(stackSpec)
	p, err := s.Build(42)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	src := testInput(n)
	for i := range src {
		got := p.Corrupt(src[i])
		if got != a[i] {
			t.Fatalf("scalar Corrupt diverges from CorruptBlock at symbol %d: %v vs %v", i, got, a[i])
		}
	}
}

// TestSeedAndOrderChangeStream pins the other half of the contract: a
// different seed, or the same stages in a different order, must change the
// noise stream.
func TestSeedAndOrderChangeStream(t *testing.T) {
	const n = 256
	a := corruptAll(t, stackSpec, 42, n, n)
	b := corruptAll(t, stackSpec, 43, n, n)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical streams")
	}

	reordered := "erase(p=0.05,block=8)|spike(prob=0.05,dwell=10,db=-3)|ge(good=16,bad=3,dgood=200,dbad=60)"
	c := corruptAll(t, reordered, 42, n, n)
	diff = 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("reordering stages did not change the stream")
	}
}

// TestIdentityPipeline: the zero-stage pipeline passes symbols through.
func TestIdentityPipeline(t *testing.T) {
	p := NewPipeline()
	src := testInput(16)
	dst := make([]complex128, 16)
	p.CorruptBlock(dst, src)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("identity pipeline altered symbol %d", i)
		}
	}
	if p.NoiseVariance() != 0 {
		t.Fatalf("identity variance = %v, want 0", p.NoiseVariance())
	}
	if p.Name() != "identity" {
		t.Fatalf("identity name = %q", p.Name())
	}
}

// TestStageVocabulary builds every stage with defaults and checks the output
// is finite and the stage reports a sensible variance.
func TestStageVocabulary(t *testing.T) {
	for _, name := range []string{"awgn", "ge", "rayleigh", "doppler", "walk", "ramp", "step", "spike", "erase"} {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		p, err := s.Build(7)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		src := testInput(128)
		dst := make([]complex128, 128)
		p.CorruptBlock(dst, src)
		for i, v := range dst {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				t.Fatalf("stage %q produced non-finite symbol %d: %v", name, i, v)
			}
		}
		if v := p.NoiseVariance(); v < 0 {
			t.Fatalf("stage %q variance %v < 0", name, v)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"nosuchstage",
		"awgn(snr=10,extra=1)",
		"awgn(snr)",
		"awgn(snr=abc)",
		"awgn(snr=1|ge",
		"|awgn",
		"awgn||ge",
		"spike(prob=2)",
		"erase(block=0)",
		"ramp(over=0)",
		"ge(dgood=0)",
		"doppler(fd=0.9)",
		"AWGN",
		// NaN, infinities and out-of-range values, in either form.
		"awgn(snr=nan)",
		"awgn(snr=inf)",
		"awgn(snr=-inf)",
		"awgn(snr=-1e6)",
		"ge(good=nan)",
		"rayleigh(avg=1e9)",
		"walk(step=nan)",
		"ramp(over=nan)",
		"ramp(over=1e300)",
		"step(at=-1)",
		"spike(prob=nan)",
		"spike(dwell=nan)",
		"spike(db=-1e4)",
		"erase(p=nan)",
		"erase(block=inf)",
		`{"stages":[{"stage":"awgn","args":{"snr":-1e6}}]}`,
		`{"stages":[{"stage":"erase","args":{"p":1.5}}]}`,
	}
	for _, s := range bad {
		spec, err := ParseAny(s)
		if err != nil {
			continue
		}
		if _, err := spec.Build(1); err == nil {
			t.Fatalf("spec %q built without error", s)
		}
	}
}

// TestSpecRoundTrip: String() is a fixed point of Parse, and the JSON form
// builds the same pipeline as the string form.
func TestSpecRoundTrip(t *testing.T) {
	s, err := Parse(stackSpec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	canon := s.String()
	s2, err := Parse(canon)
	if err != nil {
		t.Fatalf("Parse(String()): %v", err)
	}
	if s2.String() != canon {
		t.Fatalf("String not a fixed point: %q vs %q", s2.String(), canon)
	}

	js, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	s3, err := ParseAny(string(js))
	if err != nil {
		t.Fatalf("ParseAny(json): %v", err)
	}
	if s3.String() != canon {
		t.Fatalf("JSON round trip changed the spec: %q vs %q", s3.String(), canon)
	}

	const n = 128
	p1, _ := s.Build(9)
	p3, _ := s3.Build(9)
	src := testInput(n)
	d1 := make([]complex128, n)
	d3 := make([]complex128, n)
	p1.CorruptBlock(d1, src)
	p3.CorruptBlock(d3, src)
	for i := range d1 {
		if d1[i] != d3[i] {
			t.Fatalf("JSON-built pipeline diverges at symbol %d", i)
		}
	}
}

func TestParseFaultProfile(t *testing.T) {
	kv := "drop=0.05,dup=0.02,reorder=0.1,depth=4,corrupt=0.01,bits=8,err=0.01,stall=64:8,ge=0.05:0.3:0.02:0.9"
	p, err := ParseFaultProfile(kv)
	if err != nil {
		t.Fatalf("ParseFaultProfile(kv): %v", err)
	}
	want := link.FaultProfile{
		DropProb: 0.05, DupProb: 0.02,
		ReorderProb: 0.1, ReorderDepth: 4,
		CorruptProb: 0.01, CorruptBits: 8,
		ErrProb:    0.01,
		StallEvery: 64, StallFrames: 8,
		GE: &link.GilbertElliott{GoodToBad: 0.05, BadToGood: 0.3, GoodLoss: 0.02, BadLoss: 0.9},
	}
	if p.DropProb != want.DropProb || p.DupProb != want.DupProb ||
		p.ReorderProb != want.ReorderProb || p.ReorderDepth != want.ReorderDepth ||
		p.CorruptProb != want.CorruptProb || p.CorruptBits != want.CorruptBits ||
		p.ErrProb != want.ErrProb || p.StallEvery != want.StallEvery ||
		p.StallFrames != want.StallFrames || *p.GE != *want.GE {
		t.Fatalf("kv parse mismatch: %+v", p)
	}

	// JSON round trip through the link.FaultProfile tags.
	js, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	p2, err := ParseFaultProfile(string(js))
	if err != nil {
		t.Fatalf("ParseFaultProfile(json): %v", err)
	}
	if p2.DropProb != want.DropProb || p2.GE == nil || *p2.GE != *want.GE || p2.StallEvery != want.StallEvery {
		t.Fatalf("json parse mismatch: %+v", p2)
	}

	// Empty is the clean profile.
	clean, err := ParseFaultProfile("")
	if err != nil {
		t.Fatalf("ParseFaultProfile(\"\"): %v", err)
	}
	if clean != (link.FaultProfile{}) {
		t.Fatalf("empty profile not clean: %+v", clean)
	}

	for _, bad := range []string{
		"drop=2", "nope=1", "stall=64", "ge=1:2", "depth=x", "drop",
		// Both forms pass the same range check.
		"drop=nan", "dup=inf", "ge=nan:0.1:0:1", "stall=-4:2", "bits=-1",
		`{"drop":5}`, `{"depth":-3}`, `{"err":-0.1}`, `{"stall_every":8,"stall_frames":-1}`,
		`{"ge":{"good2bad":0.1,"bad2good":2,"goodloss":0,"badloss":1}}`,
	} {
		if _, err := ParseFaultProfile(bad); err == nil {
			t.Fatalf("ParseFaultProfile(%q) succeeded", bad)
		}
	}
}

// TestTraceNoiseTracksTrace: over a good/bad trace, the noise power
// measured on symbols sent in each state differs by roughly the SNR gap, and
// block calls of any size consume the trace one symbol at a time.
func TestTraceNoiseTracksTrace(t *testing.T) {
	g, err := fading.NewGilbertElliott(25, 5, 500, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewTraceNoise(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Name() != g.Name() {
		t.Errorf("trace noise named %q, want the trace's name %q", ch.Name(), g.Name())
	}
	const n = 100000
	rx := make([]complex128, n)
	for off, size := 0, 1; off < n; off, size = off+size, size%97+1 {
		end := min(off+size, n)
		ch.CorruptBlock(rx[off:end], rx[off:end])
	}
	var goodPower, badPower float64
	var goodN, badN int
	for i, y := range rx {
		p := real(y)*real(y) + imag(y)*imag(y)
		if g.SNRdB(i) == 25 {
			goodPower += p
			goodN++
		} else {
			badPower += p
			badN++
		}
	}
	if goodN == 0 || badN == 0 {
		t.Fatal("trace did not visit both states")
	}
	ratio := (badPower / float64(badN)) / (goodPower / float64(goodN))
	if ratio < 50 || ratio > 200 {
		t.Fatalf("noise power ratio between bad and good states = %v, want about 100", ratio)
	}
	if got, want := ch.NoiseVariance(), 1/mathx.DBToLinear(g.SNRdB(n)); got != want {
		t.Fatalf("NoiseVariance after %d symbols = %v, want the trace's next-symbol %v", n, got, want)
	}
	if _, err := NewTraceNoise(nil, 1); err == nil {
		t.Error("nil trace accepted")
	}
}

// FuzzParseSpec: the spec parser must never panic, and anything it accepts
// must render to a canonical form that re-parses to the same canonical form.
func FuzzParseSpec(f *testing.F) {
	f.Add(stackSpec)
	f.Add("awgn")
	f.Add(`{"stages":[{"stage":"awgn","args":{"snr":5}}]}`)
	f.Add("ramp(from=30,to=5,over=100)|erase(p=1,block=1)")
	f.Add("walk(min=-3,max=3,step=0.1)")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseAny(in)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, in, err)
		}
		if s2.String() != canon {
			t.Fatalf("canonical form not stable: %q vs %q", s2.String(), canon)
		}
		// Building may fail (argument validation), but must not panic; a
		// successful build must emit finite samples and report a finite
		// noise variance throughout.
		p, err := s.Build(3)
		if err != nil {
			return
		}
		buf := testInput(64)
		for round := 0; round < 4; round++ {
			if v := p.NoiseVariance(); !mathx.IsFinite(v) || v < 0 {
				t.Fatalf("spec %q: noise variance %v before block %d", in, v, round)
			}
			p.CorruptBlock(buf, buf)
			for i, y := range buf {
				if !mathx.IsFinite(real(y)) || !mathx.IsFinite(imag(y)) {
					t.Fatalf("spec %q: sample %d of block %d is %v", in, i, round, y)
				}
			}
		}
		if v := p.NoiseVariance(); !mathx.IsFinite(v) || v < 0 {
			t.Fatalf("spec %q: noise variance %v after corrupting", in, v)
		}
	})
}

// FuzzParseFaultProfile: no panic on arbitrary bytes, and accepted profiles
// must be usable by a FaultTransport.
func FuzzParseFaultProfile(f *testing.F) {
	f.Add("drop=0.05,dup=0.02,reorder=0.1,depth=4")
	f.Add("ge=0.05:0.3:0.02:0.9,stall=64:8")
	f.Add(`{"drop":0.1,"ge":{"good2bad":0.1,"bad2good":0.5,"goodloss":0,"badloss":1}}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParseFaultProfile(in)
		if err != nil {
			return
		}
		probs := []float64{p.DropProb, p.DupProb, p.ReorderProb, p.CorruptProb, p.ErrProb}
		if p.GE != nil {
			probs = append(probs, p.GE.GoodToBad, p.GE.BadToGood, p.GE.GoodLoss, p.GE.BadLoss)
		}
		for _, v := range probs {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("profile %q accepted with probability %v: %+v", in, v, p)
			}
		}
		if p.ReorderDepth < 0 || p.CorruptBits < 0 || p.StallEvery < 0 || p.StallFrames < 0 {
			t.Fatalf("profile %q accepted with a negative count: %+v", in, p)
		}
		a, b, err := link.NewPipePair(0, 1)
		if err != nil {
			t.Fatalf("NewPipePair: %v", err)
		}
		defer a.Close()
		defer b.Close()
		tr := link.NewFaultTransport(a, p, link.FaultProfile{}, 1)
		for i := 0; i < 4; i++ {
			_ = tr.Send([]byte{1, 2, 3, 4})
		}
		buf := make([]byte, link.MaxFrameSize)
		for {
			if _, err := b.Receive(buf, 0); err != nil {
				break
			}
		}
	})
}
