// Package channel implements the channel models used in the paper's
// evaluation: the complex additive white Gaussian noise (AWGN) channel with
// an optional ADC quantizer, the binary symmetric channel (BSC), the binary
// erasure channel (BEC, used by the fountain-code baseline), and a Rayleigh
// block-fading extension. It also declares the one channel contract every
// symbol channel in the module implements — these models, the impairment
// stages and pipelines of internal/impair, and through aliases the public
// spinal.Channel — and every transmission loop consumes.
//
// Transmitted symbols are assumed to have unit average energy (the
// constellation package guarantees this), so an AWGN channel at signal-to-
// noise ratio SNR adds complex noise of total variance 1/SNR.
package channel

import (
	"fmt"
	"math"

	"spinal/internal/mathx"
	"spinal/internal/rng"
)

// SymbolChannel corrupts complex (I-Q) symbols one at a time.
type SymbolChannel interface {
	// Corrupt returns the received value for a single transmitted symbol.
	Corrupt(x complex128) complex128
}

// BlockChannel corrupts whole blocks of symbols: dst[i] receives the channel
// output for src[i], in slice order. dst and src have equal length and may
// alias (in-place corruption is allowed). Channels are stateful — a
// time-varying channel advances its fading or noise process by one step per
// symbol — so a block call is indistinguishable from the equivalent sequence
// of per-symbol uses, and block boundaries never change the stream.
type BlockChannel interface {
	CorruptBlock(dst, src []complex128)
}

// Channel is a symbol channel: a model of everything between the encoder's
// constellation points and the decoder's observations. It is deliberately
// block-oriented — the rateless loop of the paper is pass-structured, with
// symbols arriving a striped pass at a time.
//
// Channels are not safe for concurrent use; each transmission drives its own.
type Channel interface {
	BlockChannel
	// NoiseVariance reports the total complex noise variance the channel
	// applies around its current state: the fixed sigma² of a static AWGN
	// channel, the average for block fading, and the instantaneous value a
	// trace dictates for a time-varying channel.
	NoiseVariance() float64
	// Name identifies the channel in experiment output.
	Name() string
}

// BitChannel is the binary counterpart of Channel for codes transmitted one
// coded bit per channel use (the paper's BSC variant).
type BitChannel interface {
	// CorruptBits writes the received value of each transmitted bit src[i]
	// (0 or 1) into dst[i]. dst and src must have equal length and may alias.
	CorruptBits(dst, src []byte)
	// Name identifies the channel in experiment output.
	Name() string
}

// AWGN is a discrete-time complex additive white Gaussian noise channel.
type AWGN struct {
	sigma2 float64
	snrDB  float64
	src    *rng.Rand
}

// NewAWGN returns an AWGN channel for the given linear SNR (signal power 1).
// Use NewAWGNdB for an SNR expressed in decibels.
func NewAWGN(snr float64, src *rng.Rand) (*AWGN, error) {
	return newAWGN(snr, mathx.LinearToDB(snr), src)
}

// NewAWGNdB returns an AWGN channel for an SNR given in dB.
func NewAWGNdB(snrDB float64, src *rng.Rand) (*AWGN, error) {
	return newAWGN(mathx.DBToLinear(snrDB), snrDB, src)
}

func newAWGN(snr, snrDB float64, src *rng.Rand) (*AWGN, error) {
	if !(snr > 0) || !mathx.IsFinite(snr) {
		return nil, fmt.Errorf("channel: SNR must be positive and finite, got %v", snr)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil random source")
	}
	return &AWGN{sigma2: 1 / snr, snrDB: snrDB, src: src}, nil
}

// NoiseVariance returns the total complex noise variance (sum over both
// dimensions).
func (a *AWGN) NoiseVariance() float64 { return a.sigma2 }

// Name identifies the channel by its SNR.
func (a *AWGN) Name() string { return fmt.Sprintf("awgn(%.1fdB)", a.snrDB) }

// SNR returns the linear signal-to-noise ratio of the channel.
func (a *AWGN) SNR() float64 { return 1 / a.sigma2 }

// Corrupt adds one sample of complex Gaussian noise to x.
func (a *AWGN) Corrupt(x complex128) complex128 {
	return x + a.src.ComplexNormal(a.sigma2)
}

// CorruptBlock corrupts a block of symbols into dst; see BlockChannel.
func (a *AWGN) CorruptBlock(dst, src []complex128) {
	for i, x := range src {
		dst[i] = x + a.src.ComplexNormal(a.sigma2)
	}
}

// Quantizer models the receiver's analog-to-digital converter: each dimension
// is clipped to [-limit, limit] and rounded to one of 2^bits uniform levels.
// The paper's evaluation quantizes each dimension to 14 bits (§5).
type Quantizer struct {
	bits  int
	limit float64
	step  float64
}

// NewQuantizer returns a per-dimension uniform quantizer with the given
// resolution in bits and full-scale range [-limit, limit].
func NewQuantizer(bits int, limit float64) (*Quantizer, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("channel: quantizer bits must be in [1,32], got %d", bits)
	}
	if limit <= 0 {
		return nil, fmt.Errorf("channel: quantizer limit must be positive, got %v", limit)
	}
	levels := float64(uint64(1) << uint(bits))
	return &Quantizer{bits: bits, limit: limit, step: 2 * limit / levels}, nil
}

// Bits returns the quantizer resolution per dimension.
func (q *Quantizer) Bits() int { return q.bits }

// quantizeDim clips and rounds a single coordinate.
func (q *Quantizer) quantizeDim(v float64) float64 {
	v = mathx.Clamp(v, -q.limit, q.limit-q.step/2)
	idx := math.Floor((v + q.limit) / q.step)
	return -q.limit + (idx+0.5)*q.step
}

// Quantize applies the ADC model to both dimensions of a received symbol.
func (q *Quantizer) Quantize(x complex128) complex128 {
	return complex(q.quantizeDim(real(x)), q.quantizeDim(imag(x)))
}

// QuantizedAWGN composes an AWGN channel with an ADC quantizer, which is the
// exact receive path of the paper's simulations.
type QuantizedAWGN struct {
	awgn *AWGN
	q    *Quantizer
}

// NewQuantizedAWGN builds the §5 receive path: AWGN at snrDB followed by a
// quantizer with the given bit depth. The quantizer full-scale range is set to
// cover the unit-energy constellation plus four noise standard deviations.
func NewQuantizedAWGN(snrDB float64, adcBits int, src *rng.Rand) (*QuantizedAWGN, error) {
	awgn, err := NewAWGNdB(snrDB, src)
	if err != nil {
		return nil, err
	}
	perDim := math.Sqrt(awgn.NoiseVariance() / 2)
	limit := math.Sqrt(1.5) + 4*perDim // max linear-constellation amplitude + noise headroom
	q, err := NewQuantizer(adcBits, limit)
	if err != nil {
		return nil, err
	}
	return &QuantizedAWGN{awgn: awgn, q: q}, nil
}

// Corrupt passes a symbol through noise and the ADC.
func (c *QuantizedAWGN) Corrupt(x complex128) complex128 {
	return c.q.Quantize(c.awgn.Corrupt(x))
}

// CorruptBlock passes a block of symbols through noise and the ADC; see
// BlockChannel.
func (c *QuantizedAWGN) CorruptBlock(dst, src []complex128) {
	for i, x := range src {
		dst[i] = c.q.Quantize(c.awgn.Corrupt(x))
	}
}

// NoiseVariance returns the underlying noise variance.
func (c *QuantizedAWGN) NoiseVariance() float64 { return c.awgn.NoiseVariance() }

// Name identifies the channel by its SNR and ADC resolution.
func (c *QuantizedAWGN) Name() string {
	return fmt.Sprintf("quantized-awgn(%.1fdB,%dbit)", c.awgn.snrDB, c.q.bits)
}

// BSC is a binary symmetric channel with crossover probability p.
type BSC struct {
	p   float64
	src *rng.Rand
}

// NewBSC returns a BSC with crossover probability p in [0, 0.5].
func NewBSC(p float64, src *rng.Rand) (*BSC, error) {
	if !(p >= 0 && p <= 0.5) {
		return nil, fmt.Errorf("channel: BSC crossover probability must be in [0,0.5], got %v", p)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil random source")
	}
	return &BSC{p: p, src: src}, nil
}

// P returns the crossover probability.
func (b *BSC) P() float64 { return b.p }

// Name identifies the channel by its crossover probability.
func (b *BSC) Name() string { return fmt.Sprintf("bsc(p=%.3f)", b.p) }

// CorruptBit flips the bit with probability p.
func (b *BSC) CorruptBit(bit byte) byte {
	if b.src.Bernoulli(b.p) {
		return bit ^ 1
	}
	return bit
}

// CorruptBits corrupts a block of bits (values 0/1) into dst, flipping each
// with probability p; dst and src have equal length and may alias.
func (b *BSC) CorruptBits(dst, src []byte) {
	for i, v := range src {
		dst[i] = b.CorruptBit(v)
	}
}

// Erased marks an erased position in BEC output.
const Erased = byte(2)

// BEC is a binary erasure channel with erasure probability p. Erased bits are
// reported with the value Erased.
type BEC struct {
	p   float64
	src *rng.Rand
}

// NewBEC returns a BEC with erasure probability p in [0, 1).
func NewBEC(p float64, src *rng.Rand) (*BEC, error) {
	if !(p >= 0 && p < 1) {
		return nil, fmt.Errorf("channel: BEC erasure probability must be in [0,1), got %v", p)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil random source")
	}
	return &BEC{p: p, src: src}, nil
}

// P returns the erasure probability.
func (b *BEC) P() float64 { return b.p }

// Name identifies the channel by its erasure probability.
func (b *BEC) Name() string { return fmt.Sprintf("bec(p=%.3f)", b.p) }

// CorruptBit erases the bit with probability p.
func (b *BEC) CorruptBit(bit byte) byte {
	if b.src.Bernoulli(b.p) {
		return Erased
	}
	return bit
}

// CorruptBits corrupts a block of bits into dst, erasing each with
// probability p (erased slots carry the value Erased); dst and src have
// equal length and may alias.
func (b *BEC) CorruptBits(dst, src []byte) {
	for i, v := range src {
		dst[i] = b.CorruptBit(v)
	}
}

// RayleighBlock is a block-fading channel: within each block of blockLen
// symbols the channel gain h is constant and drawn as a circularly symmetric
// complex Gaussian with unit average power; across blocks gains are
// independent. The receiver is assumed coherent (it knows h), so Corrupt
// returns the gain-compensated observation h*·y/|h|² while the effective SNR
// varies per block. This models the fast-fading motivation in §1.
type RayleighBlock struct {
	sigma2   float64
	avgSNRdB float64
	blockLen int
	src      *rng.Rand

	pos  int
	gain complex128
}

// NewRayleighBlock returns a Rayleigh block-fading channel with the given
// average SNR (dB) and fading block length in symbols.
func NewRayleighBlock(avgSNRdB float64, blockLen int, src *rng.Rand) (*RayleighBlock, error) {
	if blockLen < 1 {
		return nil, fmt.Errorf("channel: fading block length must be >= 1, got %d", blockLen)
	}
	if !mathx.IsFinite(avgSNRdB) {
		return nil, fmt.Errorf("channel: average SNR must be finite, got %v dB", avgSNRdB)
	}
	if src == nil {
		return nil, fmt.Errorf("channel: nil random source")
	}
	return &RayleighBlock{sigma2: 1 / mathx.DBToLinear(avgSNRdB), avgSNRdB: avgSNRdB, blockLen: blockLen, src: src}, nil
}

// Corrupt applies the current block gain, adds noise, and equalizes.
func (r *RayleighBlock) Corrupt(x complex128) complex128 {
	if r.pos%r.blockLen == 0 {
		r.gain = r.src.ComplexNormal(1)
	}
	r.pos++
	y := r.gain*x + r.src.ComplexNormal(r.sigma2)
	p := real(r.gain)*real(r.gain) + imag(r.gain)*imag(r.gain)
	if p < 1e-12 {
		p = 1e-12
	}
	// Coherent equalization: y * conj(h) / |h|^2.
	return y * complex(real(r.gain)/p, -imag(r.gain)/p)
}

// CorruptBlock applies the fading process to a block of symbols; see
// BlockChannel. Block boundaries are independent of fading-block boundaries —
// the gain process advances per symbol exactly as under scalar Corrupt calls.
func (r *RayleighBlock) CorruptBlock(dst, src []complex128) {
	for i, x := range src {
		dst[i] = r.Corrupt(x)
	}
}

// NoiseVariance returns the additive noise variance at the configured
// average SNR (the instantaneous post-equalization noise power varies with
// the block gain).
func (r *RayleighBlock) NoiseVariance() float64 { return r.sigma2 }

// Name identifies the channel by its average SNR and fading block length.
func (r *RayleighBlock) Name() string {
	return fmt.Sprintf("rayleigh(avg %.1fdB, Tc=%d)", r.avgSNRdB, r.blockLen)
}

// NoiseVariance returns the complex noise variance corresponding to an SNR in
// dB for unit-energy signalling.
func NoiseVariance(snrDB float64) float64 {
	return 1 / mathx.DBToLinear(snrDB)
}
