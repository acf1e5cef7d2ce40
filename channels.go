package spinal

import (
	"fmt"

	"spinal/internal/channel"
	"spinal/internal/fading"
	"spinal/internal/impair"
	"spinal/internal/rng"
)

// This file is the channel API. A channel is one small, block-oriented
// contract, declared once in internal/channel and re-exported here by alias:
// the models below, the impairment pipelines and anything a caller writes
// implement it, and every transmit loop consumes it.

// Channel is a symbol channel: a model of everything between the encoder's
// constellation points and the decoder's observations. Channels are
// deliberately block-oriented — the rateless loop of the paper is
// pass-structured, with symbols arriving a striped pass at a time — and
// stateful: a time-varying channel advances its fading or noise process by
// one step per symbol, in slice order, so a block call is indistinguishable
// from the equivalent sequence of per-symbol uses.
//
// CorruptBlock(dst, src) writes the received value of each transmitted
// symbol src[i] into dst[i]; dst and src must have equal length and may
// alias. NoiseVariance reports the total complex noise variance the channel
// applies around its current state: the fixed sigma² of a static AWGN
// channel, the average for block fading, and the instantaneous value the
// trace dictates for a time-varying channel. Name identifies the channel in
// experiment output.
//
// Channels are not safe for concurrent use; each transmission drives its own.
type Channel = channel.Channel

// BitChannel is the binary counterpart of Channel for codes transmitted one
// coded bit per channel use (the paper's BSC variant): CorruptBits(dst, src)
// writes the possibly corrupted coded bit src[i] into dst[i].
type BitChannel = channel.BitChannel

// Erased is the value a binary erasure channel reports for an erased bit.
const Erased = channel.Erased

// asChannel and asBitChannel return a constructor's model as the interface,
// keeping the interface nil on error.
func asChannel[C Channel](ch C, err error) (Channel, error) {
	if err != nil {
		return nil, err
	}
	return ch, nil
}

func asBitChannel[C BitChannel](ch C, err error) (BitChannel, error) {
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// NewAWGN returns an additive white Gaussian noise channel at the given SNR
// (dB, relative to the unit-energy constellation), with a deterministic noise
// stream derived from seed.
func NewAWGN(snrDB float64, seed uint64) (Channel, error) {
	return asChannel(channel.NewAWGNdB(snrDB, rng.New(seed)))
}

// NewQuantizedAWGN returns the receive path of the paper's evaluation: AWGN
// followed by an ADC quantizing each dimension to adcBits.
func NewQuantizedAWGN(snrDB float64, adcBits int, seed uint64) (Channel, error) {
	return asChannel(channel.NewQuantizedAWGN(snrDB, adcBits, rng.New(seed)))
}

// NewRayleigh returns a Rayleigh block-fading channel: within each block of
// blockLen symbols the complex gain is constant, across blocks it is drawn
// independently, and the receiver is coherent (observations are
// gain-compensated while the effective SNR varies per block). This is the
// fast-fading regime the paper's ratelessness is designed for.
// NoiseVariance reports the additive variance at the average SNR.
func NewRayleigh(avgSNRdB float64, blockLen int, seed uint64) (Channel, error) {
	return asChannel(channel.NewRayleighBlock(avgSNRdB, blockLen, rng.New(seed)))
}

// NewBSC returns a binary symmetric channel with crossover probability p, for
// the one-coded-bit-per-use variant of the code (see Code.TransmitBitsOver).
func NewBSC(p float64, seed uint64) (BitChannel, error) {
	return asBitChannel(channel.NewBSC(p, rng.New(seed)))
}

// NewBEC returns a binary erasure channel with erasure probability p; erased
// positions carry the value Erased. The spinal bit decoder consumes hard 0/1
// decisions only, so a BEC is not usable with TransmitBitsOver directly — it
// is exposed for fountain-style experiments and custom receive pipelines
// that handle erasures themselves.
func NewBEC(p float64, seed uint64) (BitChannel, error) {
	return asBitChannel(channel.NewBEC(p, rng.New(seed)))
}

// Trace reports the instantaneous channel SNR (in dB) at a given symbol
// index — the time-varying channel quality a rateless code absorbs without
// ever estimating it. SNRdB(i) returns the SNR for the symbol at index i
// (i >= 0) and Name identifies the trace in experiment output. Traces are
// deterministic functions of their seed, so the same trace can be replayed
// for every scheme under comparison.
type Trace = fading.Trace

// ConstantTrace returns a trace with a fixed SNR, the degenerate case used
// for calibration.
func ConstantTrace(leveldB float64) Trace {
	return fading.Constant{Level: leveldB}
}

// GilbertElliottTrace returns a two-state Markov trace alternating between a
// good and a bad SNR with geometric dwell times (in symbols) — a standard
// model for shadowing and bursty interference.
func GilbertElliottTrace(goodSNRdB, badSNRdB float64, dwellGood, dwellBad int, seed uint64) (Trace, error) {
	return fading.NewGilbertElliott(goodSNRdB, badSNRdB, dwellGood, dwellBad, seed)
}

// RayleighTrace returns a Rayleigh block-fading SNR trace: the average SNR
// scaled by an exponentially distributed power gain redrawn every coherence
// interval (in symbols).
func RayleighTrace(avgSNRdB float64, coherence int, seed uint64) (Trace, error) {
	return fading.NewRayleighBlock(avgSNRdB, coherence, seed)
}

// WalkTrace returns a bounded random walk in dB, modelling slow drift (a
// user walking away from an access point).
func WalkTrace(minDB, maxDB, stepdB float64, seed uint64) (Trace, error) {
	return fading.NewWalk(minDB, maxDB, stepdB, seed)
}

// DopplerTrace returns a Jakes-model Doppler fading SNR trace: the average
// SNR modulated by a sum of sinusoids at normalized Doppler frequency fd
// (cycles per symbol, 0 < fd <= 0.5) — correlated fast fading, in contrast
// to RayleighTrace's independent blocks.
func DopplerTrace(avgSNRdB, fd float64, seed uint64) (Trace, error) {
	return fading.NewDoppler(avgSNRdB, fd, seed)
}

// NewImpairmentPipeline compiles a declarative impairment spec — either the
// compact string grammar ("ge(good=16,bad=3)|spike(prob=0.02)|erase(p=0.01)")
// or its JSON form — into a Channel. Every stage's randomness derives from
// the pipeline seed, its name and its occurrence, so the same spec and seed
// reproduce byte-identical corruption anywhere, and a stage keeps its fault
// schedule when the stages around it change.
func NewImpairmentPipeline(spec string, seed uint64) (Channel, error) {
	s, err := impair.ParseAny(spec)
	if err != nil {
		return nil, err
	}
	return asChannel(s.Build(seed))
}

// Compose chains channels into one impairment pipeline: each transmitted
// block passes through every channel in order, NoiseVariance sums the parts,
// and the name joins theirs with '|' as the spec grammar does. Use it to
// stack hand-built channels the spec grammar cannot express (e.g. a
// quantized ADC front end over a trace channel).
func Compose(stages ...Channel) (Channel, error) {
	switch len(stages) {
	case 0:
		return nil, fmt.Errorf("spinal: Compose needs at least one channel")
	case 1:
		return stages[0], nil
	}
	return impair.NewPipeline(stages...), nil
}

// NewTraceChannel returns a time-varying channel: symbol i experiences AWGN
// at trace.SNRdB(i), with a noise stream derived from seed. NoiseVariance
// reports the instantaneous variance the trace dictates for the next symbol.
func NewTraceChannel(trace Trace, seed uint64) (Channel, error) {
	return impair.NewTraceNoise(trace, seed)
}

// NoiseVariance returns the total complex noise variance corresponding to an
// SNR in dB for unit-energy signalling — the sigma² a Channel at that SNR
// reports.
func NoiseVariance(snrDB float64) float64 {
	return channel.NoiseVariance(snrDB)
}
