// Package impair is the composable impairment pipeline: a vocabulary of
// symbol-block impairment stages (fixed and trace-driven noise,
// Gilbert-Elliott gating, Doppler/Rayleigh fading, Markov-arrival
// interference spikes, SNR ramps and steps, per-block erasures) chained into
// one deterministic channel. Real links never present one clean textbook
// model — they stack fading under burst interference under slow drift — and
// the paper's case for rateless codes is exactly that the code should not
// need to know which stack it is facing.
//
// Every stage and every Pipeline is a channel.Channel, the module's one
// symbol-channel contract, so a stack drops into spinal.Code.TransmitOver,
// the genie experiments, link.EncodeFrames and — through the scalar Corrupt
// method a Pipeline adds — under the link engine as a receiver radio.
// Pipelines also chain arbitrary channel.Channel values, which is how the
// facade composes hand-built channels. Stacks are described declaratively
// by a Spec — a flag-parsable string like
// "ge(good=16,bad=3)|spike(prob=0.02,db=-3)" or the equivalent JSON — and
// built with per-stage seeds derived from one base seed, so the same spec
// and seed reproduce byte-identical noise streams regardless of where the
// stack runs.
package impair

import (
	"fmt"
	"strings"

	"spinal/internal/channel"
	"spinal/internal/fading"
	"spinal/internal/mathx"
	"spinal/internal/rng"
)

// Pipeline chains channels in order: the output block of stage i is the
// input of stage i+1, so additive stages stack their noise and an erasure
// stage wipes whatever the stages before it produced. Every stage advances
// its state (noise stream, Markov chain, symbol position) by one step per
// symbol, so block boundaries never affect the stream: corrupting one block
// of 2n symbols equals corrupting two blocks of n. The zero-stage pipeline
// is the identity channel.
type Pipeline struct {
	stages []channel.Channel
}

// NewPipeline chains the given stages. Most callers build pipelines from a
// Spec (see Spec.Build), which also derives the per-stage seeds.
func NewPipeline(stages ...channel.Channel) *Pipeline {
	return &Pipeline{stages: stages}
}

// CorruptBlock passes the block through every stage in order.
func (p *Pipeline) CorruptBlock(dst, src []complex128) {
	if len(p.stages) == 0 {
		copy(dst, src)
		return
	}
	p.stages[0].CorruptBlock(dst, src)
	for _, s := range p.stages[1:] {
		s.CorruptBlock(dst, dst)
	}
}

// Corrupt implements channel.SymbolChannel, consuming the pipeline's streams
// exactly as a length-one block would.
func (p *Pipeline) Corrupt(x complex128) complex128 {
	var buf [1]complex128
	buf[0] = x
	p.CorruptBlock(buf[:], buf[:])
	return buf[0]
}

// NoiseVariance reports the total additive noise variance around the
// pipeline's current state: the sum of every stage's instantaneous variance.
// This is the (stale the moment conditions shift) estimate a fixed-rate
// receiver would demodulate with.
func (p *Pipeline) NoiseVariance() float64 {
	var v float64
	for _, s := range p.stages {
		v += s.NoiseVariance()
	}
	return v
}

// Name identifies the stack in experiment output.
func (p *Pipeline) Name() string {
	if len(p.stages) == 0 {
		return "identity"
	}
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name()
	}
	return strings.Join(names, "|")
}

// stageSeed derives a stage's seed from the pipeline's base seed, the stage
// name (folded FNV-style) and the stage's occurrence count among same-named
// stages (mixed with the splitmix64 increment, the repo's per-trial idiom).
// Seeding by name rather than position couples ablations: a stage faces the
// identical fault schedule whether it runs alone or anywhere inside a stack,
// so removing the other stages isolates exactly their contribution.
func stageSeed(seed uint64, occurrence int, name string) uint64 {
	h := seed ^ (0x9e3779b97f4a7c15 * uint64(occurrence+1))
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// noiseStage adds complex Gaussian noise whose variance is a function of the
// symbol index — the shared implementation of every additive stage (fixed
// AWGN, trace-driven fading, ramps and steps).
type noiseStage struct {
	name   string
	sigma2 func(i int) float64
	src    *rng.Rand
	pos    int
}

func (s *noiseStage) CorruptBlock(dst, src []complex128) {
	for i, x := range src {
		dst[i] = x + s.src.ComplexNormal(s.sigma2(s.pos))
		s.pos++
	}
}

func (s *noiseStage) NoiseVariance() float64 { return s.sigma2(s.pos) }
func (s *noiseStage) Name() string           { return s.name }

// snrNoise builds an additive stage from an SNR-in-dB profile.
func snrNoise(name string, seed uint64, snrdB func(i int) float64) *noiseStage {
	return &noiseStage{
		name:   name,
		src:    rng.New(seed),
		sigma2: func(i int) float64 { return 1 / mathx.DBToLinear(snrdB(i)) },
	}
}

// traceNoise builds an additive stage that follows a fading trace. The noise
// stream and the trace's own randomness derive from distinct sub-seeds so the
// trace shape does not depend on how many symbols have been corrupted.
func traceNoise(name string, seed uint64, trace fading.Trace) *noiseStage {
	return snrNoise(name, seed^0xa54ff53a5f1d36f1, trace.SNRdB)
}

// NewTraceNoise returns a time-varying AWGN channel: symbol i experiences
// AWGN at trace.SNRdB(i), with a noise stream drawn from rng.New(seed), and
// NoiseVariance reports the variance the trace dictates for the next
// symbol. The channel is named after the trace.
func NewTraceNoise(trace fading.Trace, seed uint64) (channel.Channel, error) {
	if trace == nil {
		return nil, fmt.Errorf("impair: nil trace")
	}
	return snrNoise(trace.Name(), seed, trace.SNRdB), nil
}

// spikeStage adds strong interference in bursts with Markov arrivals: each
// symbol, an idle stage enters a spike with probability prob, and an active
// spike ends with probability 1/dwell (geometric dwell times). During a
// spike the stage adds noise at the configured signal-to-interference ratio,
// modelling a co-channel transmitter keying on and off.
type spikeStage struct {
	name   string
	prob   float64 // per-symbol arrival probability
	endP   float64 // per-symbol departure probability (1/dwell)
	sigma2 float64 // interference variance while active
	src    *rng.Rand
	active bool
}

func (s *spikeStage) CorruptBlock(dst, src []complex128) {
	for i, x := range src {
		if s.active {
			if s.src.Bernoulli(s.endP) {
				s.active = false
			}
		} else if s.src.Bernoulli(s.prob) {
			s.active = true
		}
		if s.active {
			dst[i] = x + s.src.ComplexNormal(s.sigma2)
		} else {
			dst[i] = x
		}
	}
}

func (s *spikeStage) NoiseVariance() float64 {
	if s.active {
		return s.sigma2
	}
	return 0
}

func (s *spikeStage) Name() string { return s.name }

// eraseStage wipes whole blocks of symbols: with probability p, a block of
// blockLen symbols is replaced by unit-variance noise — the channel output
// when the signal is simply gone (a deep fade, a blanked slot), which is how
// erasures look to a soft-input decoder that has no erasure flag.
type eraseStage struct {
	name     string
	p        float64
	blockLen int
	src      *rng.Rand
	pos      int
	erasing  bool
}

func (s *eraseStage) CorruptBlock(dst, src []complex128) {
	for i, x := range src {
		if s.pos%s.blockLen == 0 {
			s.erasing = s.src.Bernoulli(s.p)
		}
		if s.erasing {
			dst[i] = s.src.ComplexNormal(1)
		} else {
			dst[i] = x
		}
		s.pos++
	}
}

func (s *eraseStage) NoiseVariance() float64 { return 0 }
func (s *eraseStage) Name() string           { return s.name }

// buildStage constructs one stage from its spec and derived seed. The stage
// vocabulary (see the package comment in spec.go for argument details):
//
//	awgn     fixed additive noise
//	ge       Gilbert-Elliott two-level SNR gating
//	rayleigh Rayleigh block fading
//	doppler  Jakes sum-of-sinusoids fading
//	walk     bounded random walk in dB
//	ramp     linear SNR ramp
//	step     SNR step change
//	spike    Markov-arrival interference bursts
//	erase    per-block erasures
func buildStage(sp StageSpec, seed uint64) (channel.Channel, error) {
	a := args{stage: sp.Stage, m: sp.Args}
	const traceSeed = 0x1f83d9abfb41bd6b
	var st channel.Channel
	switch sp.Stage {
	case "awgn":
		snr := a.db("snr", 10)
		st = snrNoise(fmt.Sprintf("awgn(snr=%g)", snr), seed, func(int) float64 { return snr })
	case "ge":
		good, bad := a.db("good", 15), a.db("bad", 0)
		dgood, dbad := a.count("dgood", 300, 1), a.count("dbad", 100, 1)
		tr, err := fading.NewGilbertElliott(good, bad, dgood, dbad, seed^traceSeed)
		st = a.traced(fmt.Sprintf("ge(good=%g,bad=%g,dgood=%d,dbad=%d)", good, bad, dgood, dbad), seed, tr, err)
	case "rayleigh":
		avg, tc := a.db("avg", 15), a.count("tc", 64, 1)
		tr, err := fading.NewRayleighBlock(avg, tc, seed^traceSeed)
		st = a.traced(fmt.Sprintf("rayleigh(avg=%g,tc=%d)", avg, tc), seed, tr, err)
	case "doppler":
		avg, fd := a.db("avg", 15), a.get("fd", 0.01)
		tr, err := fading.NewDoppler(avg, fd, seed^traceSeed)
		st = a.traced(fmt.Sprintf("doppler(avg=%g,fd=%g)", avg, fd), seed, tr, err)
	case "walk":
		lo, hi, step := a.db("min", 0), a.db("max", 20), a.get("step", 0.5)
		tr, err := fading.NewWalk(lo, hi, step, seed^traceSeed)
		st = a.traced(fmt.Sprintf("walk(min=%g,max=%g,step=%g)", lo, hi, step), seed, tr, err)
	case "ramp":
		from, to, over := a.db("from", 20), a.db("to", 5), a.count("over", 5000, 1)
		st = snrNoise(fmt.Sprintf("ramp(from=%g,to=%g,over=%d)", from, to, over), seed,
			func(i int) float64 {
				if i >= over {
					return to
				}
				return from + (to-from)*float64(i)/float64(over)
			})
	case "step":
		from, to, at := a.db("from", 20), a.db("to", 5), a.count("at", 2500, 0)
		st = snrNoise(fmt.Sprintf("step(from=%g,to=%g,at=%d)", from, to, at), seed,
			func(i int) float64 {
				if i < at {
					return from
				}
				return to
			})
	case "spike":
		prob := a.prob("prob", 0.01)
		dwell := a.get("dwell", 20)
		db := a.db("db", 0) // signal-to-interference ratio while spiking
		if !(dwell >= 1) {
			a.fail(fmt.Errorf("impair: spike dwell=%g must be at least one symbol", dwell))
		}
		st = &spikeStage{
			name:   fmt.Sprintf("spike(prob=%g,dwell=%g,db=%g)", prob, dwell, db),
			prob:   prob,
			endP:   1 / dwell,
			sigma2: 1 / mathx.DBToLinear(db),
			src:    rng.New(seed),
		}
	case "erase":
		p, blockLen := a.prob("p", 0.01), a.count("block", 16, 1)
		st = &eraseStage{
			name:     fmt.Sprintf("erase(p=%g,block=%d)", p, blockLen),
			p:        p,
			blockLen: blockLen,
			src:      rng.New(seed),
		}
	default:
		return nil, fmt.Errorf("impair: unknown stage %q", sp.Stage)
	}
	if err := a.err(); err != nil {
		return nil, err
	}
	return st, nil
}

// Argument ranges. SNRs are bounded so every stage's noise variance (and so
// every corrupted sample) stays finite; counts are bounded so they convert
// to int exactly.
const (
	maxAbsDB = 300
	maxCount = 1 << 31
)

// args validates a stage's argument map: the typed getters consume known
// keys and range-check their values, and err reports the first bad value or
// any key the stage did not recognize, so typos fail loudly instead of
// silently selecting defaults.
type args struct {
	stage string
	m     map[string]float64
	used  []string
	bad   error
}

func (a *args) get(key string, def float64) float64 {
	a.used = append(a.used, key)
	v, ok := a.m[key]
	if !ok {
		return def
	}
	if !mathx.IsFinite(v) {
		a.fail(fmt.Errorf("impair: stage %q argument %s=%g is not finite", a.stage, key, v))
	}
	return v
}

// db reads an SNR in dB.
func (a *args) db(key string, def float64) float64 {
	v := a.get(key, def)
	if !(v >= -maxAbsDB && v <= maxAbsDB) {
		a.fail(fmt.Errorf("impair: stage %q argument %s=%g dB out of [-%d,%d]", a.stage, key, v, maxAbsDB, maxAbsDB))
	}
	return v
}

// prob reads a probability.
func (a *args) prob(key string, def float64) float64 {
	v := a.get(key, def)
	if !(v >= 0 && v <= 1) {
		a.fail(fmt.Errorf("impair: stage %q argument %s=%g out of [0,1]", a.stage, key, v))
	}
	return v
}

// count reads a symbol count of at least min, truncating any fraction.
func (a *args) count(key string, def float64, min int) int {
	v := a.get(key, def)
	if !(v >= float64(min) && v <= maxCount) {
		a.fail(fmt.Errorf("impair: stage %q argument %s=%g out of [%d,%d]", a.stage, key, v, min, maxCount))
		return min
	}
	return int(v)
}

// traced returns the trace-noise stage over tr, or records the trace
// constructor's error.
func (a *args) traced(name string, seed uint64, tr fading.Trace, err error) channel.Channel {
	if err != nil {
		a.fail(err)
		return nil
	}
	return traceNoise(name, seed, tr)
}

func (a *args) fail(err error) {
	if a.bad == nil {
		a.bad = err
	}
}

func (a *args) err() error {
	if a.bad != nil {
		return a.bad
	}
	for k := range a.m {
		known := false
		for _, u := range a.used {
			if k == u {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("impair: stage %q has no argument %q", a.stage, k)
		}
	}
	return nil
}
